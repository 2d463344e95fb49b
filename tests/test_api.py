"""Tests for the frozen ``repro.api`` surface and record blocks.

``JobSpec`` / ``PipelineSpec`` are the only sanctioned construction
paths for jobs and pipeline runs; these tests pin their immutability,
that the code which runs them reads the spec itself (no mirrored
constructor), and the sealed-block codec they feed the engine.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.api import (
    JobSpec,
    PipelineSpec,
    make_block_splits,
    run_job,
    run_pipeline,
    run_serial_pipeline,
)
from repro.errors import (
    MapReduceError,
    PipelineError,
    ShuffleCorruptionError,
    ShuffleError,
)
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.executors import fork_available
from repro.mapreduce.policy import ExecutionPolicy
from repro.shuffle.config import ShuffleConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _wordcount_spec(**overrides):
    def mapper(records, ctx):
        for line in records:
            for word in line.split():
                ctx.emit(word, 1)

    def fold(key, values, ctx):
        ctx.emit(key, sum(values))

    fields = dict(name="wc", mapper=mapper, reducer=fold, num_reducers=2)
    fields.update(overrides)
    return JobSpec(**fields)


LINES = ["a b a", "c b", "a c c", "b"]


class TestJobSpec:
    def test_is_frozen(self):
        spec = _wordcount_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.num_reducers = 4

    def test_defaults_resolve_at_construction(self):
        from repro.shuffle.config import DEFAULT_SHUFFLE

        spec = _wordcount_spec()
        assert spec.shuffle is DEFAULT_SHUFFLE
        shuffle = ShuffleConfig(codec="zlib-1")
        explicit = _wordcount_spec(
            partitioner=lambda key, n: 0, shuffle=shuffle,
        )
        assert explicit.partitioner("k", 2) == 0
        assert explicit.shuffle is shuffle

    def test_validates_at_construction(self):
        with pytest.raises(MapReduceError, match="mapper is not callable"):
            JobSpec(name="bad", mapper="not-callable")

    def test_default_partitioner_preserved(self):
        from repro.mapreduce.job import default_partitioner

        assert _wordcount_spec().partitioner is default_partitioner

    def test_one_class_under_every_export(self):
        import repro
        import repro.mapreduce
        from repro.mapreduce.job import JobSpec as defined

        assert JobSpec is defined is repro.JobSpec is repro.mapreduce.JobSpec

    def test_replace_derives_variants(self):
        spec = _wordcount_spec()
        variant = dataclasses.replace(spec, num_reducers=5)
        assert spec.num_reducers == 2
        assert variant.num_reducers == 5
        assert variant.mapper is spec.mapper


class TestRunJob:
    def baseline(self):
        return run_job(_wordcount_spec(), make_block_splits([LINES]))

    def test_rejects_non_spec(self):
        with pytest.raises(MapReduceError, match="takes a JobSpec"):
            run_job(object(), [])

    def test_serial_block_wordcount(self):
        result = self.baseline()
        assert sorted(result.all_outputs()) == [("a", 3), ("b", 3), ("c", 3)]
        assert result.counters.get(C.MAP_INPUT_RECORDS) == len(LINES)

    @needs_fork
    def test_pooled_policy_matches_serial_and_closes_engine(self):
        spec = _wordcount_spec(policy=ExecutionPolicy.pooled(max_workers=2))
        result = run_job(spec, make_block_splits([LINES]))
        assert result.all_outputs() == self.baseline().all_outputs()

    def test_spec_nodes_drive_placement(self):
        spec = _wordcount_spec(nodes=("alpha", "beta"))
        result = run_job(spec, make_block_splits([LINES[:2], LINES[2:]]))
        nodes = {attempt.node for attempt in result.history.tasks}
        assert nodes <= {"alpha", "beta"}

    def test_filesystem_is_wired(self):
        hdfs = Hdfs(["n0"], replication=1)

        def mapper(records, ctx):
            ctx.write_file("/out/part", " ".join(records).encode())
            ctx.emit("done", len(records))

        run_job(JobSpec(name="writes", mapper=mapper),
                make_block_splits([["x", "y"]]), filesystem=hdfs)
        assert hdfs.get("/out/part") == b"x y"


class TestPipelineSpec:
    def test_is_frozen(self):
        spec = PipelineSpec(reference=object())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.num_reducers = 9

    def test_run_pipeline_rejects_non_spec(self):
        with pytest.raises(PipelineError, match="takes a PipelineSpec"):
            run_pipeline(object(), [])

    def test_run_serial_pipeline_rejects_non_spec(self):
        with pytest.raises(PipelineError, match="takes a PipelineSpec"):
            run_serial_pipeline(object(), [])

    def test_matches_legacy_pipeline(self, reference, ref_index, pairs):
        from repro.pipeline.parallel import GesallPipeline

        spec = PipelineSpec(
            reference=reference, index=ref_index, num_fastq_partitions=4,
            num_reducers=3,
        )
        direct = GesallPipeline(spec).run(pairs)
        via_api = run_pipeline(spec, pairs)
        assert [v.to_line() for v in via_api.variants] == \
            [v.to_line() for v in direct.variants]
        assert [r.to_line() for r in via_api.deduped] == \
            [r.to_line() for r in direct.deduped]

    def test_serial_reference_program(self, reference, ref_index, pairs):
        spec = PipelineSpec(reference=reference, index=ref_index)
        serial = run_serial_pipeline(spec, pairs)
        assert serial.variants is not None
        assert serial.alignment

    def test_range_checks_and_defaults_resolve_at_construction(self):
        with pytest.raises(PipelineError, match="at least one FASTQ"):
            PipelineSpec(reference=object(), num_fastq_partitions=0)
        spec = PipelineSpec(reference=object(), nodes=["a", "b"])
        assert spec.nodes == ("a", "b")
        assert spec.policy == ExecutionPolicy.serial()
        assert not spec.obs.enabled
        assert len(PipelineSpec(reference=object()).nodes) == 4

    @pytest.mark.parametrize("field, value, message", [
        ("num_reducers", 0, "at least one reducer"),
        ("markdup_mode", "bogus", "unknown markdup_mode 'bogus'"),
    ], ids=["num_reducers", "markdup_mode"])
    def test_a_bad_spec_fails_before_any_task_runs(self, field, value,
                                                   message):
        with pytest.raises(PipelineError, match=message):
            PipelineSpec(reference=object(), **{field: value})

    def test_no_pipeline_constructor_relists_a_spec_field(self):
        """Both pipelines hold the spec; neither mirrors its fields, so
        a field cannot reach one pipeline and be dropped by the other."""
        from repro.pipeline.parallel import GesallPipeline
        from repro.pipeline.serial import SerialPipeline

        fields = {field.name for field in dataclasses.fields(PipelineSpec)}
        parallel = inspect.signature(GesallPipeline.__init__).parameters
        serial = inspect.signature(SerialPipeline.__init__).parameters
        assert list(parallel) == ["self", "spec"]
        assert list(serial) == ["self", "spec", "batch_size", "recorder"]
        assert not fields & (set(parallel) | set(serial))


@pytest.fixture(scope="module")
def recalibrating(reference, ref_index, pairs):
    """One recalibrating spec, run through both pipelines."""
    spec = PipelineSpec(
        reference=reference, index=ref_index, num_fastq_partitions=4,
        num_reducers=3, with_recalibration=True,
    )
    some = pairs[:160]
    return spec, some, run_serial_pipeline(spec, some), \
        run_pipeline(spec, some)


class TestOneSpecBothPipelines:
    """``run_serial_pipeline`` used to hand-copy 4 of the 16 spec
    fields and silently dropped recalibration and the known sites."""

    def test_serial_pipeline_recalibrates(self, recalibrating):
        _, _, serial, _ = recalibrating
        assert serial.recal_table is not None
        assert serial.recal_table.total_observations() > 0
        # analysis_ready is the PrintReads output, not the deduped list.
        assert serial.analysis_ready is not serial.deduped
        assert [r.qual for r in serial.analysis_ready] != \
            [r.qual for r in serial.deduped]

    def test_serial_pipeline_masks_known_sites(self, recalibrating):
        spec, some, serial, _ = recalibrating
        masked = run_serial_pipeline(
            dataclasses.replace(
                spec, known_sites={("chr1", p) for p in range(4000)}
            ),
            some,
        )
        assert 0 < masked.recal_table.total_observations() \
            < serial.recal_table.total_observations()

    def test_diagnosis_compares_two_recalibrated_runs(
        self, reference, recalibrating
    ):
        from repro.diagnostics import ErrorDiagnosisToolkit

        _, _, serial, parallel = recalibrating
        assert serial.recal_table is not None
        assert parallel.recal_table is not None
        report = ErrorDiagnosisToolkit(reference).diagnose(serial, parallel)
        assert report.variants is not None
        assert [row.stage for row in report.rows][:2] == \
            ["Bwa", "Mark Duplicates"]


class TestRecordBlocks:
    def test_round_trip(self):
        block = RecordBlock(["r1", ("r2", 3), {"k": 4}])
        assert block.decode() == ["r1", ("r2", 3), {"k": 4}]
        assert len(block) == 3
        assert block.count == 3

    def test_empty_block(self):
        assert RecordBlock([]).decode() == []

    def test_pickle_ships_the_sealed_frame(self):
        block = RecordBlock(list(range(100)))
        clone = pickle.loads(pickle.dumps(block))
        assert clone.blob == block.blob
        assert clone.decode() == list(range(100))

    def test_rejects_records_and_blob_together(self):
        with pytest.raises(ShuffleError, match="not both"):
            RecordBlock(["r"], blob=b"GBLK1")
        with pytest.raises(ShuffleError, match="not both"):
            RecordBlock()

    def test_bad_magic_rejected(self):
        block = RecordBlock(["r"])
        with pytest.raises(ShuffleError, match="magic"):
            RecordBlock(blob=b"XXXXX" + block.blob[5:])

    def test_truncated_frame_rejected(self):
        with pytest.raises(ShuffleCorruptionError, match="truncated"):
            RecordBlock(blob=b"GB")

    def test_payload_corruption_fails_crc(self):
        block = RecordBlock(["record-one", "record-two"])
        rotted = bytearray(block.blob)
        rotted[-1] ^= 0xFF
        with pytest.raises(ShuffleCorruptionError, match="CRC32"):
            RecordBlock(blob=bytes(rotted)).decode()

    def test_make_block_splits_metadata(self):
        splits = make_block_splits(
            [["a"], ["b", "c"]], prefix="part", nodes=["n1", "n2"]
        )
        assert [s.split_id for s in splits] == ["part-00000", "part-00001"]
        assert [s.preferred_node for s in splits] == ["n1", "n2"]
        assert all(isinstance(s.payload, RecordBlock) for s in splits)
        assert splits[1].size_bytes == splits[1].payload.raw_bytes
