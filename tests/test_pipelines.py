"""End-to-end tests: serial vs parallel vs hybrid pipelines."""

import pytest

from repro.api import PipelineSpec
from repro.chaos import CorruptReplica, FaultPlan
from repro.errors import BlockLostError
from repro.formats.bam import read_bam
from repro.mapreduce.policy import ExecutionPolicy
from repro.metrics.accuracy import (
    compare_alignments,
    compare_duplicates,
    compare_variants,
)
from repro.pipeline.hybrid import HybridPipeline
from repro.pipeline.parallel import GesallPipeline
from repro.pipeline.serial import SerialPipeline


@pytest.fixture(scope="module")
def serial_result(reference, ref_index, pairs):
    return SerialPipeline(
        PipelineSpec(reference, index=ref_index), batch_size=500
    ).run(pairs)


@pytest.fixture(scope="module")
def parallel_result(reference, ref_index, pairs):
    pipeline = GesallPipeline(PipelineSpec(
        reference, index=ref_index, num_fastq_partitions=6, num_reducers=3
    ))
    return pipeline.run(pairs)


class TestSerialPipeline:
    def test_stage_outputs_populated(self, serial_result, pairs):
        assert len(serial_result.alignment) == 2 * len(pairs)
        assert serial_result.cleaned
        assert serial_result.deduped
        assert serial_result.variants

    def test_deduped_is_coordinate_sorted(self, serial_result):
        mapped = [r for r in serial_result.deduped if r.is_mapped]
        last = None
        for record in mapped:
            key = (record.rname, record.pos)
            if last is not None and record.rname == last[0]:
                assert key >= last
            last = key

    def test_variants_hit_truth(self, serial_result, donor):
        truth = donor.truth_sites()
        called = {v.site_key() for v in serial_result.variants}
        sensitivity = len(called & truth) / len(truth)
        precision = len(called & truth) / len(called)
        assert sensitivity > 0.4
        assert precision > 0.4

    def test_recalibration_branch(self, reference, ref_index, pairs):
        pipeline = SerialPipeline(
            PipelineSpec(reference, index=ref_index, with_recalibration=True),
            batch_size=500,
        )
        result = pipeline.run(pairs[:400])
        assert result.recal_table is not None
        assert result.recal_table.total_observations() > 0
        assert result.analysis_ready


class TestParallelPipeline:
    def test_same_read_count_as_serial(self, serial_result, parallel_result):
        assert len(parallel_result.alignment) == len(serial_result.alignment)

    def test_round_results_exposed(self, parallel_result):
        rounds = parallel_result.rounds
        assert set(rounds.results) == {
            "round1", "round2", "round3", "round4", "round5"
        }

    def test_round_records_decode_on_first_read_and_are_kept(
        self, reference, ref_index, pairs
    ):
        result = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=3, num_reducers=2
        )).run(pairs[:60])
        decoded = {"alignment", "cleaned", "deduped"} & set(vars(result))
        assert not decoded  # the run itself decoded no round
        assert sorted(result.round_paths) == ["alignment", "cleaned", "deduped"]
        alignment = result.alignment
        assert len(alignment) == 120 and result.alignment is alignment
        assert "alignment" in vars(result) and "deduped" not in vars(result)
        assert [r.to_line() for r in result.deduped] == [
            record.to_line()
            for path in result.round_paths["deduped"]
            for record in read_bam(result.hdfs.get(path))[1]
        ]

    def test_round_records_survive_storage_chaos_after_their_round(
        self, reference, ref_index, pairs
    ):
        # Every replica of a round-1 block rots when round 3 starts —
        # after round 2 consumed it.  The run completes, and reading
        # ``alignment`` afterwards must still work: it was decoded
        # before the damage, as when the lists were captured eagerly.
        def run(plan):
            policy = ExecutionPolicy(executor="serial", fault_plan=plan)
            return GesallPipeline(PipelineSpec(
                reference, index=ref_index, num_fastq_partitions=3,
                num_reducers=2, policy=policy,
            )).run(pairs[:60])

        target = "/round1/part-00000.bam"
        chaotic = run(FaultPlan(seed=0, events=tuple(
            CorruptReplica(target, "round3", 0, replica)
            for replica in range(3)
        )))
        assert len(chaotic.chaos_events) == 3
        with pytest.raises(BlockLostError):
            chaotic.hdfs.get(target)
        # Decoded at the round-3 boundary; round 3 had not run yet.
        assert {"alignment", "cleaned"} <= set(vars(chaotic))
        assert "deduped" not in vars(chaotic)
        clean = run(None)
        for name in ("alignment", "cleaned", "deduped"):
            assert [r.to_line() for r in getattr(chaotic, name)] == [
                r.to_line() for r in getattr(clean, name)
            ]
        assert [v.to_line() for v in chaotic.variants] == [
            v.to_line() for v in clean.variants
        ]

    def test_variants_produced(self, parallel_result):
        assert parallel_result.variants

    def test_alignment_discordance_small_but_nonzero(
        self, serial_result, parallel_result
    ):
        """Paper: Bwa is *not* embarrassingly parallel, but the
        discordance is a small fraction of reads."""
        comparison = compare_alignments(
            serial_result.alignment, parallel_result.alignment
        )
        assert comparison.d_count > 0
        assert comparison.d_count / comparison.total < 0.2

    def test_duplicate_net_count_close(self, serial_result, parallel_result):
        comparison = compare_duplicates(
            serial_result.deduped, parallel_result.deduped
        )
        # Net duplicate-count difference is tiny relative to flag churn
        # (paper: 259 vs a 1.6M flag-difference count).
        assert comparison.count_difference <= max(
            5, 0.2 * max(1, comparison.flag_differences)
        )

    def test_variant_concordance_dominates(self, serial_result, parallel_result):
        comparison = compare_variants(
            serial_result.variants, parallel_result.variants
        )
        assert len(comparison.concordant) > 0
        assert comparison.d_count <= 0.3 * len(comparison.concordant)


class TestHybridPipeline:
    def test_impact_from_alignment(self, reference, serial_result,
                                   parallel_result):
        hybrid = HybridPipeline(reference)
        variants = hybrid.from_alignment(parallel_result.alignment)
        comparison = compare_variants(serial_result.variants, variants)
        assert len(comparison.concordant) > 0
        # D_impact should be no larger than the full-parallel D_count
        # by much; it isolates upstream effects only.
        assert comparison.d_count <= 0.3 * len(comparison.concordant)

    def test_identical_input_gives_identical_output(self, reference,
                                                    serial_result):
        """A hybrid run on the *serial* alignment must reproduce the
        serial pipeline exactly (control experiment)."""
        hybrid = HybridPipeline(reference)
        variants = hybrid.from_alignment(serial_result.alignment)
        assert {v.site_key() for v in variants} == {
            v.site_key() for v in serial_result.variants
        }

    def test_from_markdup_control(self, reference, serial_result):
        hybrid = HybridPipeline(reference)
        variants = hybrid.from_markdup(serial_result.deduped)
        assert {v.site_key() for v in variants} == {
            v.site_key() for v in serial_result.variants
        }
