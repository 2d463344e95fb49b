"""Tests for data-locality scheduling, sar rendering, SamtoolsIndex."""

import pytest

from repro.cleaning.indexing import SamtoolsIndex
from repro.cleaning.sort import SortSam
from repro.cluster.costs import GB
from repro.cluster.hardware import CLUSTER_B
from repro.cluster.fluid import UtilizationTrace
from repro.cluster.monitor import (
    RAMP,
    render_ramp,
    render_strip_chart,
    sample_utilization,
)
from repro.cluster.mrsim import (
    ClusterModel,
    MapTaskSpec,
    RoundSpec,
    simulate_round,
)
from repro.errors import PipelineError
from repro.formats.bam import read_bam
from repro.formats.sam import SamHeader


def map_task(preferred=None):
    return MapTaskSpec(
        input_bytes=0.5 * GB, cpu_core_seconds=60.0,
        output_bytes=0.1 * GB, preferred_node=preferred,
    )


class TestDataLocality:
    def test_all_local_when_spread_matches_slots(self):
        cluster = ClusterModel(CLUSTER_B)
        maps = [map_task(node) for node in cluster.nodes for _ in range(2)]
        spec = RoundSpec("local", maps, map_slots_per_node=2)
        result = simulate_round(cluster, spec)
        assert result.data_local_maps == len(maps)

    def test_skew_falls_back_to_remote(self):
        cluster = ClusterModel(CLUSTER_B)
        hot = cluster.nodes[0]
        maps = [map_task(hot) for _ in range(8)]
        spec = RoundSpec("skewed", maps, map_slots_per_node=1)
        result = simulate_round(cluster, spec)
        # Only one slot on the hot node: some tasks must go remote, but
        # the job still finishes and locality is partial.
        assert 0 < result.data_local_maps < len(maps)
        assert len(result.tasks_of("map")) == len(maps)

    def test_no_preference_runs_fine(self):
        cluster = ClusterModel(CLUSTER_B)
        maps = [map_task(None) for _ in range(6)]
        result = simulate_round(
            cluster, RoundSpec("nopref", maps, map_slots_per_node=2)
        )
        assert result.data_local_maps == 0
        assert len(result.tasks_of("map")) == 6

    def test_locality_avoids_queueing_delay(self):
        """Tasks pinned evenly finish no later than a skewed pinning."""
        cluster = ClusterModel(CLUSTER_B)
        even = [map_task(node) for node in cluster.nodes for _ in range(3)]
        skew = [map_task(cluster.nodes[0]) for _ in range(12)]
        even_wall = simulate_round(
            cluster, RoundSpec("even", even, map_slots_per_node=3)
        ).wall_seconds
        skew_wall = simulate_round(
            ClusterModel(CLUSTER_B),
            RoundSpec("skew", skew, map_slots_per_node=3),
        ).wall_seconds
        assert even_wall <= skew_wall


class TestMonitorRendering:
    @pytest.fixture()
    def traced_round(self):
        cluster = ClusterModel(CLUSTER_B)
        maps = [map_task() for _ in range(8)]
        result = simulate_round(
            cluster, RoundSpec("traced", maps, map_slots_per_node=2)
        )
        return cluster, result

    def test_samples_cover_horizon(self, traced_round):
        cluster, result = traced_round
        disk = cluster.disks[cluster.nodes[0]][0].name
        points = sample_utilization(result.trace, disk, result.wall_seconds, 20)
        assert len(points) == 20
        assert all(0.0 <= v <= 1.0 for _, v in points)
        assert points[0][0] < points[-1][0] <= result.wall_seconds

    def test_strip_chart_width(self, traced_round):
        cluster, result = traced_round
        disk = cluster.disks[cluster.nodes[0]][0].name
        strip = render_strip_chart(result.trace, disk, result.wall_seconds, 40)
        assert len(strip) == 40

    def test_empty_horizon(self, traced_round):
        _, result = traced_round
        assert sample_utilization(result.trace, "none", 0.0) == []

    def test_empty_trace_samples_idle(self):
        trace = UtilizationTrace()
        points = sample_utilization(trace, "sda", 10.0, 8)
        assert len(points) == 8
        assert all(value == 0.0 for _, value in points)
        assert render_strip_chart(trace, "sda", 10.0, 8) == " " * 8

    def test_sample_on_interval_boundary_takes_next(self):
        # Intervals are half-open [t0, t1): a sample landing exactly on
        # a boundary belongs to the interval that starts there.
        trace = UtilizationTrace()
        trace.intervals["sda"] = [(0.0, 1.0, 1.0), (1.0, 2.0, 0.5)]
        # horizon=2, samples=1 puts the single sample at exactly t=1.0.
        assert sample_utilization(trace, "sda", 2.0, 1) == [(1.0, 0.5)]

    def test_zero_width_horizon_and_no_samples(self):
        trace = UtilizationTrace()
        trace.intervals["sda"] = [(0.0, 1.0, 1.0)]
        assert sample_utilization(trace, "sda", 0.0, 10) == []
        assert sample_utilization(trace, "sda", -1.0, 10) == []
        assert sample_utilization(trace, "sda", 1.0, 0) == []
        assert render_strip_chart(trace, "sda", 0.0) == ""

    def test_render_ramp_clamps_out_of_range(self):
        assert render_ramp([-1.0, 0.0, 1.0, 2.0]) == "  @@"
        assert render_ramp([0.5]) == RAMP[5]
        assert render_ramp([]) == ""


class TestSamtoolsIndex:
    def test_builds_bam_and_index(self, sam_header, aligned):
        _, sorted_records = SortSam("coordinate").run(sam_header, aligned[:300])
        data, index = SamtoolsIndex(chunk_bytes=2048).build(
            sam_header, sorted_records
        )
        _, parsed = read_bam(data)
        assert parsed == sorted_records
        assert index.chunk_count() >= 1

    def test_rejects_unsorted(self, sam_header, aligned):
        shuffled = sorted(aligned[:100], key=lambda r: r.qname, reverse=True)
        mapped = [r for r in shuffled if r.is_mapped]
        if mapped[0].pos < mapped[-1].pos:
            mapped.reverse()
        with pytest.raises(PipelineError):
            SamtoolsIndex().build(sam_header, mapped)

    def test_unsorted_allowed_when_disabled(self, sam_header, aligned):
        indexer = SamtoolsIndex(require_sorted=False)
        data, _ = indexer.build(sam_header, aligned[:50])
        assert data
