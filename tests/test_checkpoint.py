"""Checkpoint/resume tests: backends, manifest guards, pipeline resume.

The guarantee under test: after a crash, ``resume=True`` restores the
longest completed *prefix* of rounds byte-identically and re-runs only
what is missing — and refuses checkpoints written by a different input
or pipeline configuration.
"""

import dataclasses
import json
import os

import pytest

from repro.align import AlignerConfig, ReferenceIndex
from repro.api import PipelineSpec
from repro.chaos import FaultPlan, KillDriver, RaiseInTask
from repro.errors import CheckpointError, DriverKilledError, MapReduceError
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.recorder import ObsConfig
from repro.pipeline import parallel
from repro.pipeline.checkpoint import CheckpointStore, LocalDirectoryBackend
from repro.pipeline.parallel import _NOT_OUTPUT_SHAPING, GesallPipeline
from repro.variants.genotyper import GenotyperConfig
from repro.variants.haplotype import HaplotypeCallerConfig

ALL_ROUNDS = ["round1", "round2", "round3", "round4", "round5"]


class TestLocalDirectoryBackend:
    def test_write_read_roundtrip(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        backend.write("blob.bin", b"payload")
        assert backend.read("blob.bin") == b"payload"
        backend.write("blob.bin", b"rewritten")
        assert backend.read("blob.bin") == b"rewritten"

    def test_missing_blob_is_none(self, tmp_path):
        assert LocalDirectoryBackend(str(tmp_path)).read("nope") is None

    def test_writes_leave_no_temp_files(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        for i in range(5):
            backend.write(f"b{i}.bin", b"x" * i)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestCheckpointStore:
    def seeded_store(self, tmp_path):
        store = CheckpointStore.local(str(tmp_path))
        store.begin("fp", resume=False)
        store.save_round(
            "round1",
            [("/round1/p0", b"alpha", True), ("/round1/p1", b"beta", False)],
            extras={"paths": ["/round1/p0", "/round1/p1"]},
            blobs={"table": b"pickled-table"},
        )
        return store

    def test_save_then_restore_in_a_new_process(self, tmp_path):
        self.seeded_store(tmp_path)
        store = CheckpointStore.local(str(tmp_path))
        assert store.begin("fp", resume=True) == ["round1"]
        assert store.has_round("round1")
        hdfs = Hdfs(["a", "b"], replication=2)
        extras, blobs = store.restore_round("round1", hdfs)
        assert extras == {"paths": ["/round1/p0", "/round1/p1"]}
        assert blobs == {"table": b"pickled-table"}
        assert hdfs.get("/round1/p0") == b"alpha"
        assert hdfs.get_file("/round1/p0").logical_partition is True
        assert hdfs.get_file("/round1/p1").logical_partition is False

    def test_fresh_begin_wipes_previous_rounds(self, tmp_path):
        store = self.seeded_store(tmp_path)
        assert store.begin("fp", resume=False) == []
        assert not store.has_round("round1")

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        store = CheckpointStore.local(str(tmp_path))
        assert store.begin("fp", resume=True) == []

    def test_restore_unknown_round_raises(self, tmp_path):
        store = self.seeded_store(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.restore_round("round9", Hdfs(["a"], replication=1))

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        self.seeded_store(tmp_path)
        store = CheckpointStore.local(str(tmp_path))
        with pytest.raises(CheckpointError, match="different run"):
            store.begin("other-fp", resume=True)

    def test_version_mismatch_refuses_resume(self, tmp_path):
        self.seeded_store(tmp_path)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["version"] = 999
        manifest.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            CheckpointStore.local(str(tmp_path)).begin("fp", resume=True)

    def test_unparsable_manifest_raises(self, tmp_path):
        self.seeded_store(tmp_path)
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore.local(str(tmp_path)).begin("fp", resume=True)

    def test_corrupt_blob_detected_by_crc(self, tmp_path):
        self.seeded_store(tmp_path)
        (tmp_path / "round1-f0000.bin").write_bytes(b"rotten")
        store = CheckpointStore.local(str(tmp_path))
        store.begin("fp", resume=True)
        with pytest.raises(CheckpointError, match="corrupt"):
            store.restore_round("round1", Hdfs(["a"], replication=1))

    def test_missing_blob_detected(self, tmp_path):
        self.seeded_store(tmp_path)
        (tmp_path / "round1-b-table.bin").unlink()
        store = CheckpointStore.local(str(tmp_path))
        store.begin("fp", resume=True)
        with pytest.raises(CheckpointError, match="missing"):
            store.restore_round("round1", Hdfs(["a"], replication=1))


NODES = [f"node{i:02d}" for i in range(4)]


def build(reference, ref_index, num_reducers=2, **kwargs):
    return GesallPipeline(PipelineSpec(
        reference, index=ref_index, nodes=NODES,
        num_fastq_partitions=3, num_reducers=num_reducers, **kwargs,
    ))


def vcf_lines(result):
    return [v.to_line() for v in result.variants]


@pytest.fixture(scope="module")
def some_pairs(pairs):
    return pairs[:160]


@pytest.fixture(scope="module")
def clean_ckpt(tmp_path_factory, reference, ref_index, some_pairs):
    """One checkpointed clean run, shared by the resume tests."""
    root = str(tmp_path_factory.mktemp("ckpt"))
    result = build(reference, ref_index, checkpoint_dir=root).run(some_pairs)
    return root, result


class TestPipelineResume:
    def test_resume_restores_the_whole_completed_run(
        self, reference, ref_index, some_pairs, clean_ckpt
    ):
        root, first = clean_ckpt
        second = build(
            reference, ref_index, checkpoint_dir=root,
            obs=ObsConfig(enabled=True),
        ).run(some_pairs, resume=True)
        assert second.resumed_rounds == ALL_ROUNDS
        assert second.rounds.results == {}  # nothing re-executed
        assert vcf_lines(second) == vcf_lines(first)
        # Restored round outputs are byte-identical to the original's.
        prefixes = ("/round1/", "/round2/", "/round3/", "/round4/")
        restored_paths = [
            f.path for f in first.hdfs.files() if f.path.startswith(prefixes)
        ]
        assert restored_paths
        for path in restored_paths:
            assert second.hdfs.get(path) == first.hdfs.get(path)
        # The trace shows five restore spans and zero save spans.
        names = [
            s.name for s in second.recorder.spans()
            if s.category == "checkpoint"
        ]
        assert names == [f"checkpoint:restore:{k}" for k in ALL_ROUNDS]
        metrics = second.recorder.metrics
        assert metrics.counter("checkpoint.rounds_restored").value == 5
        assert metrics.counter("checkpoint.rounds_saved").value == 0

    def test_resume_with_different_config_is_refused(
        self, reference, ref_index, some_pairs, clean_ckpt
    ):
        root, _ = clean_ckpt
        with pytest.raises(CheckpointError, match="different run"):
            build(
                reference, ref_index, num_reducers=3, checkpoint_dir=root
            ).run(some_pairs, resume=True)

    @pytest.mark.parametrize("changed", [
        lambda ref: {"hc_config": HaplotypeCallerConfig(
            activity_threshold=0.2)},
        lambda ref: {"hc_config": HaplotypeCallerConfig(
            genotyper=GenotyperConfig(min_depth=9))},
        lambda ref: {"aligner_config": AlignerConfig(seed=5)},
        lambda ref: {"known_sites": {("chr1", 10)}},
        lambda ref: {"index": ReferenceIndex(ref, max_hits_per_kmer=8)},
    ], ids=["hc_config", "nested-genotyper", "aligner_config",
            "known_sites", "index"])
    def test_resume_after_an_output_shaping_parameter_changed_is_refused(
        self, changed, reference, ref_index, some_pairs, clean_ckpt
    ):
        """The old digest ignored these: a run with a different
        ``hc_config`` silently restored the old round-5 variants."""
        root, _ = clean_ckpt
        kwargs = {"index": ref_index, **changed(reference)}
        pipeline = GesallPipeline(PipelineSpec(
            reference, nodes=NODES, num_fastq_partitions=3, num_reducers=2,
            checkpoint_dir=root, **kwargs,
        ))
        with pytest.raises(CheckpointError, match="different run"):
            pipeline.run(some_pairs, resume=True)

    def test_default_and_equal_configs_keep_the_parent_fingerprint(
        self, reference, ref_index, some_pairs, clean_ckpt
    ):
        """Spelling the defaults out is not a change, equal configs
        render equally (never through an address-bearing ``repr``), and
        a default run's digest is pinned."""
        root, first = clean_ckpt
        resumed = build(
            reference, ref_index, checkpoint_dir=root,
            hc_config=HaplotypeCallerConfig(), aligner_config=AlignerConfig(),
            known_sites=set(),
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ALL_ROUNDS
        assert vcf_lines(resumed) == vcf_lines(first)

        def digest(**kwargs):
            return build(reference, ref_index, **kwargs)._fingerprint(
                some_pairs[:4]
            )
        # Was 6d32c0ed (captured on f88c515) under the v1 salt; the v2
        # salt refuses v1 checkpoints, whose round 2 has no bloom sidecars.
        assert digest() == "e943be61"
        assert digest(hc_config=HaplotypeCallerConfig(seed=3)) == digest(
            hc_config=HaplotypeCallerConfig(seed=3)
        ) != digest()

    def test_every_spec_field_is_fingerprinted_or_declared_not_shaping(
        self, reference, ref_index, some_pairs
    ):
        """A new ``PipelineSpec`` field must either change the digest
        or be named in ``_NOT_OUTPUT_SHAPING`` — the decision PR 16 had
        to retrofit for five fields a hand-listed digest had missed."""
        changed = {
            "index": ReferenceIndex(reference, max_hits_per_kmer=8),
            "nodes": NODES[:2],
            "aligner_config": AlignerConfig(seed=5),
            "hc_config": HaplotypeCallerConfig(activity_threshold=0.2),
            "num_fastq_partitions": 5,
            "num_reducers": 3,
            "markdup_mode": "reg",
            "with_recalibration": True,
            "known_sites": {("chr1", 10)},
            "block_size": 32 * 1024,
            "chunk_bytes": 8 * 1024,
        }
        names = [field.name for field in dataclasses.fields(PipelineSpec)]
        assert set(_NOT_OUTPUT_SHAPING) <= set(names)
        base = build(reference, ref_index)
        digest = base._fingerprint(some_pairs[:4])
        for name in names:
            if name in _NOT_OUTPUT_SHAPING:
                continue
            assert name in changed, (
                f"PipelineSpec.{name}: fold it into "
                "GesallPipeline._fingerprint or name it in "
                "_NOT_OUTPUT_SHAPING"
            )
            variant = GesallPipeline(
                dataclasses.replace(base.spec, **{name: changed[name]})
            )
            assert variant._fingerprint(some_pairs[:4]) != digest, name

    def test_crash_in_round4_resumes_running_only_the_tail(
        self, reference, ref_index, some_pairs, clean_ckpt, tmp_path
    ):
        _, clean = clean_ckpt
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(
            RaiseInTask("round4-sort-m-00000", attempt=1),
        ))
        crashing = ExecutionPolicy(
            task_retries=0, fault_plan=plan,
            sleep=lambda _s: None,
        )
        with pytest.raises(MapReduceError, match="after 1 attempt"):
            build(
                reference, ref_index, checkpoint_dir=root, policy=crashing
            ).run(some_pairs)
        # Rounds 1-3 are durable; the resumed run executes only 4 and 5.
        manifest = json.loads(
            (tmp_path / "ckpt" / "manifest.json").read_text()
        )
        assert manifest["order"] == ["round1", "round2", "round3"]
        resumed = build(reference, ref_index, checkpoint_dir=root).run(
            some_pairs, resume=True
        )
        assert resumed.resumed_rounds == ["round1", "round2", "round3"]
        executed = {
            k for k in resumed.rounds.results if k.startswith("round")
        }
        assert executed == {"round4", "round5"}
        assert vcf_lines(resumed) == vcf_lines(clean)
        # The finished resume run checkpointed the missing rounds too.
        manifest = json.loads(
            (tmp_path / "ckpt" / "manifest.json").read_text()
        )
        assert manifest["order"] == ALL_ROUNDS


class TestBloomSidecarCheckpoint:
    """Round 2 writes MarkDup_opt's bloom as ``part-NNNNN.bloom`` beside
    each BAM; the round-2 checkpoint carries it like any of its files."""

    def test_kill_in_round3_resumes_from_the_checkpointed_sidecars(
        self, reference, ref_index, some_pairs, clean_ckpt, tmp_path
    ):
        _, clean = clean_ckpt
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round3", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        resumed = build(reference, ref_index, checkpoint_dir=root).run(
            some_pairs, resume=True
        )
        assert resumed.resumed_rounds == ["round1", "round2"]
        assert list(resumed.recovered_tasks) == ["round3"]
        sidecars = [p for p in resumed.hdfs.list_dir("/round2")
                    if p.endswith(".bloom")]
        assert len(sidecars) == 2  # one per reducer
        for key in ("round2", "round3", "round4"):
            paths = clean.hdfs.list_dir(f"/{key}")
            assert paths and resumed.hdfs.list_dir(f"/{key}") == paths
            for path in paths:
                assert resumed.hdfs.get(path) == clean.hdfs.get(path), path
        assert vcf_lines(resumed) == vcf_lines(clean)

    def test_a_checkpoint_under_the_v1_salt_is_refused(
        self, reference, ref_index, some_pairs, tmp_path, monkeypatch
    ):
        """A parent-commit checkpoint has no sidecars in round 2, so
        round 3 opt could not resume from it: its digest must not match."""
        pairs = some_pairs[:4]
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_FINGERPRINT_SALT",
                          b"gesall-checkpoint-v1")
            parent = build(reference, ref_index)._fingerprint(pairs)
        assert parent == "6d32c0ed"  # what the parent commit wrote
        root = str(tmp_path / "ckpt")
        store = CheckpointStore.local(root)
        store.begin(parent, resume=False)
        store.save_round("round1", [], extras={"paths": []})
        with pytest.raises(CheckpointError, match="different run"):
            build(reference, ref_index, checkpoint_dir=root).run(
                pairs, resume=True
            )
