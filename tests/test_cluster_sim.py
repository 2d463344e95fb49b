"""Tests for the fluid simulator, thread model, MR round simulation and
the paper figures of every plane."""

import glob
import json
import os

import pytest

from repro import studies
from repro.cluster.costs import GB, NA12878, CostModel
from repro.cli import main
from repro.cluster.fluid import FluidSimulator, Phase, Resource, SimTask
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B, SINGLE_SERVER
from repro.cluster.mrsim import (
    ClusterModel,
    MapTaskSpec,
    ReduceTaskSpec,
    RoundSpec,
    simulate_round,
)
from repro.cluster.rounds_model import chromosome_fractions, round3_spec, round5_spec
from repro.cluster.threading import (
    BwaThreadModel,
    node_throughput,
    process_thread_configurations,
)
from repro.errors import SimulationError
from repro.obs.figures import FIGURES, PLANES, Figure, figure_record, run_figure
from repro.obs.report import Table

KB, MB = 1024, 1024 * 1024


class TestHardware:
    def test_table3_cluster_a(self):
        assert CLUSTER_A.data_nodes == 15
        assert CLUSTER_A.node.cores == 24
        assert CLUSTER_A.node.core_ghz == 2.66
        assert CLUSTER_A.node.disks == 1

    def test_table3_cluster_b(self):
        assert CLUSTER_B.data_nodes == 4
        assert CLUSTER_B.node.cores == 16
        assert CLUSTER_B.node.disks == 6
        assert CLUSTER_B.node.network_bandwidth > CLUSTER_A.node.network_bandwidth

    def test_comparable_total_memory(self):
        """Table 3's design point: the clusters have comparable memory."""
        ratio = CLUSTER_A.total_memory() / CLUSTER_B.total_memory()
        assert 0.9 < ratio < 1.1

    def test_with_modifiers(self):
        assert CLUSTER_B.with_disks(2).node.disks == 2
        assert CLUSTER_A.with_data_nodes(5).data_nodes == 5
        assert CLUSTER_A.with_data_nodes(5).node.cores == 24


class TestThreadModel:
    def test_single_thread_is_unity(self):
        assert BwaThreadModel().speedup(1) == pytest.approx(1.0)

    def test_sublinear_at_24_threads(self):
        model = BwaThreadModel(readahead_bytes=128 * KB)
        assert model.speedup(24) < 24

    def test_readahead_improves_scaling(self):
        """Fig 5c: 64 MB readahead clearly beats the 128 KB default."""
        small = BwaThreadModel(readahead_bytes=128 * KB)
        large = BwaThreadModel(readahead_bytes=64 * MB)
        assert large.speedup(24) > small.speedup(24) * 1.3
        for n in range(2, 25):
            assert large.speedup(n) >= small.speedup(n)

    def test_monotone_in_threads(self):
        model = BwaThreadModel(readahead_bytes=64 * MB)
        curve = [model.speedup(n) for n in range(1, 25)]
        assert curve == sorted(curve)

    def test_interpolation_between_operating_points(self):
        mid = BwaThreadModel(readahead_bytes=4 * MB)
        assert (
            BwaThreadModel(64 * MB).serial_fraction
            < mid.serial_fraction
            < BwaThreadModel(128 * KB).serial_fraction
        )

    def test_many_processes_beat_one_wide_process(self):
        """Section 4.3: the process-thread hierarchy wins — 6 mappers x
        4 threads outperform 1 mapper x 24 threads on a 24-core node."""
        model = BwaThreadModel(readahead_bytes=128 * KB)
        assert node_throughput(6, 4, model) > node_throughput(1, 24, model)

    def test_configuration_enumeration(self):
        configs = process_thread_configurations(24)
        assert (24, 1) in configs
        assert (1, 24) in configs
        assert (6, 4) in configs
        assert all(p * t == 24 for p, t in configs)


class TestFluidSimulator:
    def cpu(self, capacity=4.0):
        return Resource("cpu", capacity)

    def test_single_task_duration(self):
        sim = FluidSimulator()
        sim.start_task(SimTask("t", [Phase(self.cpu(), 8.0, rate_cap=2.0)]))
        assert sim.run() == pytest.approx(4.0)

    def test_fair_sharing(self):
        cpu = self.cpu(capacity=2.0)
        sim = FluidSimulator()
        sim.start_task(SimTask("a", [Phase(cpu, 10.0)]))
        sim.start_task(SimTask("b", [Phase(cpu, 10.0)]))
        assert sim.run() == pytest.approx(10.0)  # 2 tasks share 2 units/s

    def test_rate_caps_respected(self):
        cpu = self.cpu(capacity=10.0)
        sim = FluidSimulator()
        sim.start_task(SimTask("capped", [Phase(cpu, 10.0, rate_cap=1.0)]))
        assert sim.run() == pytest.approx(10.0)

    def test_cap_leftover_redistributed(self):
        cpu = self.cpu(capacity=10.0)
        sim = FluidSimulator()
        sim.start_task(SimTask("capped", [Phase(cpu, 100.0, rate_cap=1.0)]))
        sim.start_task(SimTask("greedy", [Phase(cpu, 90.0)]))
        # Greedy gets 9 units/s -> finishes at t=10; capped at t=100.
        sim.run()
        greedy = next(t for t in sim.completed if t.task_id == "greedy")
        assert greedy.end_time == pytest.approx(10.0)

    def test_sequential_phases(self):
        cpu = self.cpu(1.0)
        disk = Resource("disk", 2.0)
        sim = FluidSimulator()
        sim.start_task(SimTask("t", [Phase(cpu, 3.0), Phase(disk, 4.0)]))
        assert sim.run() == pytest.approx(3.0 + 2.0)

    def test_phase_times_recorded(self):
        cpu = self.cpu(1.0)
        sim = FluidSimulator()
        task = SimTask("t", [Phase(cpu, 2.0, label="work")])
        sim.start_task(task)
        sim.run()
        assert task.phase_times == [("work", 0.0, 2.0)]

    def test_work_conservation(self):
        """Total service delivered equals total demand."""
        cpu = self.cpu(3.0)
        demands = [5.0, 7.0, 2.5, 9.0]
        sim = FluidSimulator()
        for i, demand in enumerate(demands):
            sim.start_task(SimTask(f"t{i}", [Phase(cpu, demand)]))
        wall = sim.run()
        delivered = sum(
            (t1 - t0) * fraction * cpu.capacity
            for t0, t1, fraction in sim.trace.series("cpu")
        )
        assert delivered == pytest.approx(sum(demands), rel=1e-6)
        assert wall >= sum(demands) / cpu.capacity

    def test_utilization_bounded(self):
        cpu = self.cpu(2.0)
        sim = FluidSimulator()
        for i in range(5):
            sim.start_task(SimTask(f"t{i}", [Phase(cpu, 4.0)]))
        sim.run()
        assert sim.trace.peak_utilization("cpu") <= 1.0
        assert sim.trace.mean_utilization("cpu") == pytest.approx(1.0)

    def test_zero_demand_task_completes(self):
        sim = FluidSimulator()
        sim.start_task(SimTask("empty", [Phase(self.cpu(), 0.0)]))
        assert sim.run() == 0.0
        assert len(sim.completed) == 1

    def test_resource_validation(self):
        with pytest.raises(SimulationError):
            Resource("bad", 0.0)


def quick_round(cluster, n_maps=8, reduce=True):
    maps = [
        MapTaskSpec(input_bytes=1 * GB, cpu_core_seconds=100.0,
                    output_bytes=1 * GB)
        for _ in range(n_maps)
    ]
    reduces = [
        ReduceTaskSpec(shuffle_bytes=1 * GB, merge_extra_bytes=0.5 * GB,
                       cpu_core_seconds=50.0, output_bytes=0.5 * GB)
        for _ in range(4)
    ] if reduce else None
    return RoundSpec("quick", maps, map_slots_per_node=2, reduce_tasks=reduces,
                     reduce_slots_per_node=2)


class TestMRSimulation:
    def test_round_completes(self):
        cluster = ClusterModel(CLUSTER_B)
        result = simulate_round(cluster, quick_round(cluster))
        assert result.wall_seconds > 0
        assert len(result.tasks_of("map")) == 8
        assert len(result.tasks_of("reduce")) == 4

    def test_reduce_waits_for_all_maps(self):
        cluster = ClusterModel(CLUSTER_B)
        result = simulate_round(cluster, quick_round(cluster))
        maps_done = max(t.end for t in result.tasks_of("map"))
        for reduce_task in result.tasks_of("reduce"):
            merge_phases = [
                t0 for name, t0, t1 in reduce_task.phases
                if name in ("merge", "reduce-cpu")
            ]
            if merge_phases:
                assert min(merge_phases) >= maps_done - 1e-6

    def test_map_only_round(self):
        cluster = ClusterModel(CLUSTER_B)
        result = simulate_round(cluster, quick_round(cluster, reduce=False))
        assert result.tasks_of("reduce") == []

    def test_slots_limit_concurrency(self):
        cluster = ClusterModel(CLUSTER_B)  # 4 nodes x 2 slots = 8 at once
        spec = quick_round(cluster, n_maps=16, reduce=False)
        result = simulate_round(cluster, spec)
        events = []
        for task in result.tasks_of("map"):
            events.append((task.start, 1))
            events.append((task.end, -1))
        events.sort()
        running = peak = 0
        for _, delta in events:
            running += delta
            peak = max(peak, running)
        assert peak <= 8

    def test_more_disks_never_slower(self):
        cost = CostModel()
        results = []
        for disks in (1, 2, 6):
            cluster = ClusterModel(CLUSTER_B.with_disks(disks))
            spec = round3_spec(cluster, cost, NA12878, "reg",
                               num_map_partitions=96, reducers_per_node=16,
                               map_slots_per_node=16)
            results.append(simulate_round(cluster, spec).wall_seconds)
        assert results[0] >= results[1] >= results[2]

    def test_markdup_reg_slower_than_opt(self):
        cost = CostModel()
        cluster = ClusterModel(CLUSTER_B)
        walls = {}
        for mode in ("opt", "reg"):
            spec = round3_spec(cluster, cost, NA12878, mode,
                               num_map_partitions=96, reducers_per_node=16,
                               map_slots_per_node=16)
            walls[mode] = simulate_round(cluster, spec).wall_seconds
        assert walls["reg"] > walls["opt"] * 1.5

    def test_round5_underutilizes_cluster(self):
        """Section 4.4 item 4: 23 chromosome partitions cannot fill 90
        slots; the wall clock tracks the largest chromosome."""
        cost = CostModel()
        cluster = ClusterModel(CLUSTER_A)
        result = simulate_round(
            cluster, round5_spec(cluster, cost, NA12878, map_slots_per_node=6)
        )
        fractions = chromosome_fractions()
        longest = max(fractions.values())
        expected_floor = (
            cost.haplotype_caller_core_seconds * 0.98 * longest
            / (CLUSTER_A.node.core_ghz / 2.4)
        )
        assert result.wall_seconds >= expected_floor * 0.95
        # Mean CPU utilization across nodes is poor.
        cpu_utils = [
            result.trace.mean_utilization(f"{node}/cpu")
            for node in cluster.nodes
        ]
        assert sum(cpu_utils) / len(cpu_utils) < 0.5

    def test_serial_slot_time_accrued(self):
        cluster = ClusterModel(CLUSTER_B)
        result = simulate_round(cluster, quick_round(cluster))
        assert result.serial_slot_seconds > 0

    def test_chromosome_fractions_sum_to_one(self):
        assert sum(chromosome_fractions().values()) == pytest.approx(1.0)


RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "results")
#: The functional figures that run the pipelines take about 14 s together
#: on a 2-vCPU host; bench-smoke regenerates and diffs them instead.
PIPELINE_BACKED = {"table8_accuracy", "table9_10_quality", "fig11_error_diagnosis",
                   "fig6a_transform_fractions", "shuffle_codecs",
                   "somatic_purity_sweep"}
#: The two five-round plans carry no claim: they are printed for reading,
#: and their pinned records have none.
UNCLAIMED = {"pipeline_cluster_a", "pipeline_cluster_b"}
#: Committed records that scripts under ``benchmarks/`` write.
SCRIPT_RECORDS = {"profile_wgs-serial", "profile_wgs-serial_parent",
                  "profile_clean-durable", "profile_clean-durable_parent"}


def _committed(name):
    with open(os.path.join(RESULTS, f"BENCH_{name}.json")) as handle:
        return json.load(handle)


class TestPaperFigures:
    @pytest.mark.parametrize("name", [
        name for name, entry in FIGURES.items()
        if entry.plane != "measured" and name not in PIPELINE_BACKED])
    def test_every_claim_holds_and_the_record_is_committed(self, name):
        """Each figure's claims are the paper's shapes; its committed
        ``BENCH_<name>.json`` is what ``perf-study --out`` writes today."""
        tables, claims = run_figure(name)
        assert tables and all(table.rows for table in tables)
        assert [claim for claim, holds in claims.items() if not holds] == []
        record = json.loads(json.dumps(figure_record(name, tables, claims)))
        assert record == _committed(name), \
            f"regenerate: repro-genomics perf-study {name} --out benchmarks/results"

    def test_a_failed_claim_exits_1_and_an_unknown_name_2(
        self, monkeypatch, tmp_path, capsys
    ):
        def build():
            return [Table("t", (("k", ""),), [("x",)])]

        monkeypatch.setitem(FIGURES, "broken", Figure(
            build, {}, (("never", lambda t: False),), "simulated"))
        assert main(["perf-study", "broken", "--out", str(tmp_path)]) == 1
        assert "CLAIM FAILED: broken: never" in capsys.readouterr().out
        with open(tmp_path / "BENCH_broken.json") as handle:
            assert json.load(handle)["claims"] == {"never": False}
        assert main(["perf-study", "nope"]) == 2

    def test_every_figure_has_a_plane_a_claim_and_a_matching_record(self):
        """Only a measured record carries the host it was timed on."""
        for name, entry in FIGURES.items():
            record = _committed(name)
            assert entry.plane in PLANES, name
            assert bool(entry.claims) != (name in UNCLAIMED), name
            assert record["plane"] == entry.plane, name
            assert ("host" in record) == (entry.plane == "measured"), name

    def test_a_rounds_scale_row_is_checked_and_ordered(self):
        """One quarter-size scale, one iteration, in its own interpreter."""
        row = studies.scale_row_in_child(seed=3, scale=0.25, iterations=1)
        assert set(row) == {"scale", "pairs", "records", "check_failures",
                            "peak_rss", "rounds"}
        assert row["check_failures"] == [] and row["records"] > 0
        assert set(row["rounds"]) == set(studies.SCALE_ROUNDS)
        for stats in row["rounds"].values():
            assert stats["n"] == 1
            assert (stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"]
                    <= stats["max"])

    def test_rounds_scale_without_the_harness_exits_2(self, monkeypatch, tmp_path, capsys):
        missing = str(tmp_path / "e2e")
        monkeypatch.setattr(studies, "HARNESS_DIR", missing)
        assert main(["perf-study", "rounds_scale"]) == 2
        assert missing in capsys.readouterr().err

    def test_every_committed_record_is_versioned(self):
        paths = glob.glob(os.path.join(RESULTS, "BENCH_*.json"))
        names = {os.path.basename(path)[len("BENCH_"):-len(".json")]
                 for path in paths}
        assert names == set(FIGURES) | SCRIPT_RECORDS
        for path in paths:
            with open(path) as handle:
                record = json.load(handle)
            assert record.get("schema_version", 0) >= 2, path
            assert "host" in record or "plane" in record, path
