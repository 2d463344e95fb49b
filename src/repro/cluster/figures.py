"""The simulated figures of :data:`repro.obs.figures.FIGURES`: each a
``build(cost, workload, **params)`` run for NA12878, with its claims.  The
five-round plan is :meth:`PipelineOptimizer.evaluate`'s.
"""

from __future__ import annotations

from repro.cluster.costs import NA12878, CostModel, Workload
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
from repro.cluster.monitor import render_strip_chart
from repro.cluster.mrsim import ClusterModel, MapTaskSpec, RoundSpec, simulate_round
from repro.cluster.optimizer import PipelineOptimizer, PlanEvaluation, PlanKnobs
from repro.cluster.rounds_model import (
    bwa_single_node_seconds, chromosome_fractions, cleaning_single_node_seconds,
    markdup_single_node_seconds, round1_spec, round3_spec,
)
from repro.cluster.threading import BwaThreadModel
from repro.obs.figures import column, figure, ordered, table
from repro.pipeline.stages import TABLE2_STAGES, total_pipeline_hours


def _figure(name: str, params, *claims):
    def register(build):
        figure("simulated", name, params, *claims)(
            lambda **kwargs: build(CostModel(), NA12878, **kwargs))
        return build
    return register


#: The two five-round plans the paper runs (Tables 6 and 7's clusters).
PLANS = {"A": (CLUSTER_A, PlanKnobs(6, 4, 90, "opt", 6, 0.05)),
         "B": (CLUSTER_B, PlanKnobs(16, 1, 64, "opt", 16, 0.05))}


def _plan(cost: CostModel, workload: Workload, cluster: str) -> PlanEvaluation:
    spec, knobs = PLANS[cluster]
    return PipelineOptimizer(spec, cost, workload).evaluate(knobs)


def _pipeline(cost, workload, cluster):
    plan = _plan(cost, workload, cluster)
    rows = [(f"Round {index}", result.name, result.wall_seconds,
             result.serial_slot_seconds)
            for index, result in enumerate(plan.rounds, 1)]
    return [table(f"Cluster {cluster} ({PLANS[cluster][0].data_nodes} nodes), "
                  f"{plan.knobs}", "round|job|wall:hms|slot time:hms",
                  rows + [("TOTAL", "", plan.wall_seconds, plan.slot_seconds)],
                  f"cluster efficiency {plan.cluster_efficiency:.2f}")]


for _name in PLANS:
    _figure(f"pipeline_cluster_{_name.lower()}", {"cluster": _name})(_pipeline)


def _markdup_a(cost, workload, nodes, partitions, slowstart=0.05):
    cluster = ClusterModel(CLUSTER_A.with_data_nodes(nodes))
    return simulate_round(cluster, round3_spec(
        cluster, cost, workload, "opt", partitions, 6, 6, slowstart=slowstart))


def _markdup_b(cost, workload, mode, disks):
    cluster = ClusterModel(CLUSTER_B.with_disks(disks))
    return cluster, simulate_round(
        cluster, round3_spec(cluster, cost, workload, mode, 384, 16, 16))


@_figure("table2_single_server", {},
         ("total is 10-16 days (paper: about two weeks)",
          lambda t: 10 <= t[0]["TOTAL"]["hours"] / 24 <= 16),
         ("CleanSam reads 7.55 h (7 h 33 m)",
          lambda t: t[0]["Clean Sam"]["hours"] == 7.55),
         ("MarkDuplicates reads 14.45 h (14 h 26 m 42 s)",
          lambda t: t[0]["Mark Duplicates"]["hours"] == 14.45))
def _table2(cost, workload):
    total = total_pipeline_hours()
    return [table("Table 2: single-server running times",
                  "stage|step|hours|wall:hms|source",
                  [(s.name, s.step, s.single_server_hours,
                    s.single_server_hours * 3600, s.source) for s in TABLE2_STAGES]
                  + [("TOTAL", "", total, total * 3600,
                      f"{total / 24:.1f} days; paper: about two weeks")])]


@_figure("table4_partition_size",
         {"align_partitions": (15, 4800), "markdup_partitions": (30, 510)},
         ("large alignment partitions must win",
          lambda t: t[0][15]["wall"] < t[0][4800]["wall"]),
         ("medium MarkDup partitions must win",
          lambda t: t[1][510]["wall"] < t[1][30]["wall"]))
def _table4(cost, workload, align_partitions, markdup_partitions):
    cluster, mb = ClusterModel(CLUSTER_A), 1024 ** 2
    columns = "partitions:n|avg size MB:n|wall:hms"
    return [
        table("Round 1: alignment, 15 nodes x 1 mapper x 6 threads", columns, [
            (parts, workload.fastq_bytes / parts / mb, simulate_round(
               cluster, round1_spec(cluster, cost, workload, parts, 1, 6)
            ).wall_seconds) for parts in align_partitions]),
        table("Round 3: MarkDuplicates opt, 5 nodes x 6 tasks", columns, [
            (parts, workload.bam_bytes / parts / mb,
             _markdup_a(cost, workload, 5, parts).wall_seconds)
            for parts in markdup_partitions]),
    ]


@_figure("table5_scaleup", {"node_counts": (1, 5, 10, 15), "tasks_per_node": 6},
         ("more nodes must be faster",
          lambda t: ordered(column(t[1], "wall"), True)
          and ordered(column(t[2], "wall"), True)),
         ("paper: resource efficiency is low (<50%)",
          lambda t: max(t[1][15]["efficiency"], t[2][15]["efficiency"]) < 0.5),
         ("reg is slower than opt at every scale",
          lambda t: all(reg > opt for opt, reg in
                        zip(column(t[1], "wall"), column(t[2], "wall")))))
def _table5(cost, workload, node_counts, tasks_per_node):
    baseline = markdup_single_node_seconds(cost)
    tables = [table("Gold standard: MarkDuplicates, 1 thread, 1 node",
                    "program|wall:hms", [("MarkDuplicates", baseline)])]
    for mode in ("opt", "reg"):
        rows = []
        for nodes in node_counts:
            cluster = ClusterModel(CLUSTER_A.with_data_nodes(nodes))
            tasks = nodes * tasks_per_node
            wall = simulate_round(cluster, round3_spec(
                cluster, cost, workload, mode, max(90, nodes * 30),
                tasks_per_node, tasks_per_node)).wall_seconds
            rows.append((nodes, tasks, wall, baseline / wall,
                         baseline / wall / tasks))
        tables.append(table(f"MarkDup_{mode} scale-up on Cluster A",
                            "nodes:n|tasks:n|wall:hms|speedup:x|efficiency", rows))
    return tables


@_figure("table6_rounds", {"cluster": "A"},
         ("super-linear speedup expected (> 15 nodes)",
          lambda t: t[0]["Round 1 vs 24-thread Bwa"]["speedup"] > 15),
         ("1-thread speedup must be sub-linear (< 360 threads)",
          lambda t: t[0]["Round 1 vs 1-thread Bwa"]["speedup"] < 360),
         ("round 2 resource efficiency < 0.5",
          lambda t: t[0]["Round 2"]["efficiency"] < 0.5),
         ("round 3 resource efficiency < 0.5",
          lambda t: t[0]["Round 3"]["efficiency"] < 0.5),
         ("round 2 speedup > 1", lambda t: t[0]["Round 2"]["speedup"] > 1),
         ("round 3 speedup > 1", lambda t: t[0]["Round 3"]["speedup"] > 1))
def _table6(cost, workload, cluster):
    spec, knobs = PLANS[cluster]
    tasks = spec.data_nodes * knobs.reducers_per_node
    r1, r2, r3 = _plan(cost, workload, cluster).rounds[:3]
    rows = [(f"Round 1 vs {threads}-thread Bwa", r1, bwa_single_node_seconds(
        cost, spec, threads=threads), None) for threads in (24, 1)]
    rows += [("Round 2", r2, cleaning_single_node_seconds(cost), tasks),
             ("Round 3", r3, markdup_single_node_seconds(cost), tasks)]
    return [table(
        f"Rounds 1-3 (Bwa, cleaning, MarkDup opt) on Cluster {cluster}, "
        f"{spec.data_nodes} nodes, {tasks} tasks, vs one node",
        "round|wall:hms|single node:hms|speedup:x|efficiency|slot time:hms",
        [(label, result.wall_seconds, base, base / result.wall_seconds,
          base / result.wall_seconds / cores if cores else None,
          result.serial_slot_seconds) for label, result, base, cores in rows])]


def _wall(t, label: str) -> float:
    return t[0][label]["wall"]


@_figure("table7_production", {"reg_disks": (1, 2, 3, 6), "opt_disks": (1, 6)},
         ("16 single-threaded mappers must beat 4x4 threads",
          lambda t: _wall(t, "align 4x16x1") < _wall(t, "align 4x4x4")),
         ("reg must improve with disks", lambda t: ordered([
             r["wall"] for k, r in t[0].items() if k.startswith("markdup_reg")], True)),
         ("opt on 1 disk beats half of reg on 1 disk",
          lambda t: _wall(t, "markdup_opt 1 disk")
          < _wall(t, "markdup_reg 1 disk") / 2),
         ("~100 GB per disk is sustainable: opt gains much less from disks than reg",
          lambda t: _wall(t, "markdup_reg 1 disk") / _wall(t, "markdup_reg 6 disks")
          > _wall(t, "markdup_opt 1 disk") / _wall(t, "markdup_opt 6 disks")),
         ("parallel MarkDuplicates crushes the 14.5 h single-thread baseline (> 8x)",
          lambda t: _wall(t, "in-house 1x1x1") > 8 * _wall(t, "markdup_opt 6 disks")),
         ("calibration sanity: every surviving paper wall within 35 %",
          lambda t: all(0.65 < r["wall"] / r["paper wall"] < 1.35
                        for r in t[0].values() if r["paper wall"])))
def _table7(cost, workload, reg_disks, opt_disks):
    cluster = ClusterModel(CLUSTER_B)
    rows = []
    for label, mappers, threads in (("align 4x4x4", 4, 4), ("align 4x16x1", 16, 1)):
        result = simulate_round(
            cluster, round1_spec(cluster, cost, workload, 64, mappers, threads))
        rows.append((label, result.wall_seconds, result.avg_map_seconds(), None, None))
    for mode, disk_counts in (("reg", reg_disks), ("opt", opt_disks)):
        for disks in disk_counts:
            result = _markdup_b(cost, workload, mode, disks)[1]
            rows.append((f"markdup_{mode} {disks} disk" + "s" * (disks > 1),
                         result.wall_seconds, result.avg_map_seconds(),
                         result.avg_shuffle_merge_seconds(),
                         result.avg_reduce_seconds()))
    rows.append(("in-house 1x1x1", markdup_single_node_seconds(cost), None, None, None))
    paper = {label: h * 3600 + m * 60 + s for label, (h, m, s) in {
        "align 4x4x4": (4, 57, 16), "align 4x16x1": (3, 45, 24),
        "markdup_reg 1 disk": (4, 43, 26), "markdup_reg 2 disks": (3, 24, 2),
        "markdup_reg 3 disks": (3, 7, 31), "markdup_reg 6 disks": (2, 55, 36),
        "markdup_opt 1 disk": (1, 27, 36), "markdup_opt 6 disks": (1, 22, 40),
    }.items()}  # the walls that survive in the paper's text
    return [table("Table 7: Cluster B (4 nodes x 16 cores); in-house MarkDup "
                  "is single-threaded", "configuration|wall:hms|avg map:hms"
                  "|avg shuffle+merge:hms|avg reduce:hms|paper wall:hms",
                  [row + (paper.get(row[0]),) for row in rows])]


@_figure("fig5a_align_overheads", {"partition_counts": (15, 60, 240, 960, 4800)},
         ("cycles must grow with partitions",
          lambda t: ordered(column(t[0], "cycles T"))),
         ("cache misses must grow with partitions",
          lambda t: ordered(column(t[0], "misses G"))),
         ("cache misses grow by more than 25 % from fewest to most partitions",
          lambda t: t[0][4800]["misses G"] > 1.25 * t[0][15]["misses G"]))
def _fig5a(cost, workload, partition_counts):
    cluster, rows = ClusterModel(CLUSTER_A), []
    for parts in partition_counts:
        tasks = round1_spec(cluster, cost, workload, parts, 1, 6).map_tasks
        align = sum(t.cpu_core_seconds + t.transform_core_seconds for t in tasks)
        startup = sum(t.startup_core_seconds for t in tasks)
        # Cycles at 2.4 GHz; 8x the cache misses while loading the index.
        rows.append((parts, (align + startup) * 2.4e9 / 1e12,
                     (align * 2.0e6 + startup * 1.6e7) / 1e9))
    return [table("Alignment CPU cycles and cache misses by partition count",
                  "partitions:n|cycles T|misses G", rows)]


@_figure("fig5b_markdup_breakdown", {"partition_counts": (30, 510)},
         ("the key difference is the map-side merge: 30 partitions > 510",
          lambda t: t[0][30]["map merge"] > t[0][510]["map merge"]),
         ("510 partitions fit the sort buffer: no map-side merge",
          lambda t: t[0][510]["map merge"] == 0.0))
def _fig5b(cost, workload, partition_counts):
    results = [(p, _markdup_a(cost, workload, 5, p)) for p in partition_counts]
    return [table(
        "MarkDuplicates opt, 5 nodes: average task seconds by phase",
        "partitions:n|map+sort:s|map merge:s|shuffle+merge:s|reduce:s",
        [(parts, result.avg_phase_seconds(
            "map", "input-read", "startup", "map-cpu", "transform", "spill-write"),
          result.avg_phase_seconds("map", "map-merge"),
          result.avg_shuffle_merge_seconds(), result.avg_reduce_seconds())
         for parts, result in results])]


@_figure("fig5c_bwa_threads", {"threads": (1, 2, 4, 8, 12, 16, 20, 24)},
         ("128KB < 64MB < ideal at 24 threads",
          lambda t: t[0][24]["128KB"] < t[0][24]["64MB"] < t[0][24]["ideal"]),
         ("default readahead must flatten well below ideal (< 14x)",
          lambda t: t[0][24]["128KB"] < 14),
         ("64MB readahead recovers much of the scaling (> 15x)",
          lambda t: t[0][24]["64MB"] > 15))
def _fig5c(cost, workload, threads):
    small, large = BwaThreadModel(128 * 1024), BwaThreadModel(64 * 1024 ** 2)
    return [table("Single-node Bwa speedup by thread count and readahead",
                  "threads:n|128KB:x|64MB:x|ideal:x",
                  [(n, small.speedup(n), large.speedup(n), float(n))
                   for n in threads])]


@_figure("fig6b_hadoop_vs_single",
         {"programs": ("AddReplRG", "CleanSam", "FixMateInfo", "SortSam", "MarkDup")},
         ("every wrapped program costs more when called repeatedly (all > 1)",
          lambda t: min(column(t[0], "ratio")) > 1.0),
         ("CleanSam's ratio is the paper's 11 h 03 m / 7 h 33 m", lambda t: abs(
             t[0]["CleanSam"]["ratio"] - (11 + 3 / 60) / (7 + 33 / 60)) < 0.01))
def _fig6b(cost, workload, programs):
    return [table("Summed Hadoop time / single-node time per program",
                  "program|ratio:x",
                  [(p, cost.hadoop_call_ratio[p]) for p in programs])]


def _progress_bar(task, wall: float, width: int = 60) -> str:
    bar = [" "] * width
    for name, t0, t1 in task.phases:
        lo = int(t0 / wall * (width - 1))
        hi = min(width, max(lo + 1, int(t1 / wall * (width - 1))))
        bar[lo:hi] = {"map-cpu": "m", "shuffle-net": "s", "shuffle-write": "s",
                      "wait-maps": ".", "merge": "g", "reduce-cpu": "r",
                      }.get(name, "-") * (hi - lo)
    return f"|{''.join(bar)}|"


@_figure("fig7_task_progress", {"mode": "opt", "disks": 1},
         ("reduce tasks ran", lambda t: column(t[0], "reduce tasks")[0] > 0),
         ("reducer progress is even: no stragglers (end spread < 25 % of wall)",
          lambda t: column(t[0], "reducer end spread")[0] < 0.25),
         ("shuffle overlaps the map phase (slowstart)",
          lambda t: column(t[0], "first shuffle")[0] < column(t[0], "last map end")[0]))
def _fig7(cost, workload, mode, disks):
    result = _markdup_b(cost, workload, mode, disks)[1]
    wall, maps, reduces = (result.wall_seconds, result.tasks_of("map"),
                           result.tasks_of("reduce"))
    ends = [task.end for task in reduces]
    return [
        table(f"MarkDup_{mode} on Cluster B, {disks} disk",
              "job|wall:hms|reduce tasks:n|reducer end spread:%"
              "|first shuffle:s|last map end:s",
              [(result.name, wall, len(reduces),
                (max(ends, default=0.0) - min(ends, default=0.0)) / wall,
                min((task.start for task in reduces), default=float("inf")),
                max(task.end for task in maps))]),
        table("Task progress (m=map s=shuffle .=wait g=merge r=reduce -=I/O)",
              "task|0 s to end of job", [(task.task_id, _progress_bar(task, wall))
                                         for task in maps[:6] + reduces[:12]]),
    ]


@_figure("fig10_disk_utilization",
         {"scenarios": (("reg", 1), ("reg", 6), ("opt", 1))},
         ("Fig 10a: reg on one disk maxes the disk out for a long stretch",
          lambda t: t[0]["reg_1disk"]["busy"] > 0.5),
         ("Fig 10b: six disks relieve the pressure",
          lambda t: t[0]["reg_6disks"]["busy"] < t[0]["reg_1disk"]["busy"]),
         ("Fig 10c: opt's ~100 GB/disk is sustainable even on one disk",
          lambda t: t[0]["opt_1disk"]["busy"] < t[0]["reg_1disk"]["busy"]))
def _fig10(cost, workload, scenarios):
    busiest, strips = [], []
    for mode, disks in scenarios:
        label = f"{mode}_{disks}disk" + "s" * (disks > 1)
        cluster, result = _markdup_b(cost, workload, mode, disks)
        wall, trace = result.wall_seconds, result.trace
        rows = [(f"{label} {disk.name}",
                 f"|{render_strip_chart(trace, disk.name, wall)}|",
                 trace.mean_utilization(disk.name, horizon=wall),
                 trace.busy_fraction(disk.name, horizon=wall))
                for disk in cluster.disks[cluster.nodes[0]]]
        busiest.append((label, max(row[2] for row in rows),
                        max(row[3] for row in rows), wall))
        strips += rows
    return [table("Busiest disk of node 0", "scenario|mean:%|busy:%|wall:hms",
                  busiest, "busy: share of the job above 95 % utilization"),
            table("Node 0 disk utilization over the job (sar-style)",
                  "disk|utilization|mean:%|busy:%", strips)]


@_figure("rounds45_varcall",
         {"cluster": "A", "segments_per_chromosome": 8, "overlap_fraction": 0.02},
         ("round 5 uses only 23 of 90 slots",
          lambda t: t[0]["Round 5"]["map tasks"] == 23),
         ("round 5 wastes most of the cluster (mean CPU < 35 %)",
          lambda t: t[0]["Round 5"]["mean CPU"] < 0.35),
         ("round 5's wall clock tracks the largest chromosome (>= 95 % of its floor)",
          lambda t: t[0]["Round 5"]["wall"] >= 0.95 * t[0]["Round 5"]["floor"]),
         ("fine-grained overlapping partitioning restores parallelism (< 45 %)",
          lambda t: t[0]["Round 5 fine"]["wall"] < 0.45 * t[0]["Round 5"]["wall"]),
         ("round 4's shuffle cost is real but bounded (paper ~1 h)",
          lambda t: 1800 < t[0]["Round 4"]["wall"] < 7200))
def _rounds45(cost, workload, cluster, segments_per_chromosome, overlap_fraction):
    spec, knobs = PLANS[cluster]
    model = ClusterModel(spec)
    round4, round5 = _plan(cost, workload, cluster).rounds[3:]
    hc_total = cost.haplotype_caller_core_seconds * 0.98
    # GDPT's overlapping fine-grained partitioning (section 3.2).
    works = [fraction / segments_per_chromosome * (1.0 + overlap_fraction)
             for fraction in chromosome_fractions().values()
             for _ in range(segments_per_chromosome)]
    fine = simulate_round(model, RoundSpec("round5-finegrained", [
        MapTaskSpec(workload.bam_bytes * work, hc_total * work, 1,
                    cost.mapper_startup_core_seconds, output_bytes=0.3e9 * work)
        for work in works], map_slots_per_node=knobs.reducers_per_node))
    floor = hc_total * max(chromosome_fractions().values()) / model.ghz_ratio
    rows = [("Round 4", round4, 3600 + 60, None),
            ("Round 5", round5, 7 * 3600 + 14 * 60, floor),
            ("Round 5 fine", fine, None, None)]
    return [table(
        f"Rounds 4 and 5 on Cluster {cluster}, "
        f"{spec.data_nodes * knobs.reducers_per_node} task slots; fine: "
        f"{segments_per_chromosome} segments per chromosome",
        "round|job|wall:hms|paper:hms|map tasks:n|mean CPU:%|floor:hms",
        [(label, result.name, result.wall_seconds, paper,
          len(result.tasks_of("map")),
          sum(result.trace.mean_utilization(f"{node}/cpu",
                                            horizon=result.wall_seconds)
              for node in model.nodes) / len(model.nodes), bound)
         for label, result, paper, bound in rows],
        "floor: the largest chromosome's share of HC work on one core")]


@_figure("ablation_slowstart",
         {"partitions": 450, "slowstarts": (0.05, 0.25, 0.50, 0.80, 0.95)},
         ("later slowstart monotonically reduces wasted reducer slot time",
          lambda t: ordered(column(t[0], "slot time"), True)),
         ("... without a large wall-clock penalty (within 25 %)",
          lambda t: max(column(t[0], "wall")) / min(column(t[0], "wall")) < 1.25),
         ("slowstart 0.80 wastes fewer slot-seconds than 0.05 (Table 5)",
          lambda t: t[0][0.8]["slot time"] <= t[0][0.05]["slot time"]))
def _ablation_slowstart(cost, workload, partitions, slowstarts):
    results = [(s, _markdup_a(cost, workload, 15, partitions, s))
               for s in slowstarts]
    return [table(f"MarkDup_opt, 15 nodes, {partitions} partitions, by slowstart",
                  "slowstart|wall:s|slot time:s",
                  [(s, r.wall_seconds, r.serial_slot_seconds) for s, r in results])]
