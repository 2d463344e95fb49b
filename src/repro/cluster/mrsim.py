"""MapReduce round simulation on the fluid engine.

Builds cluster resources from a :class:`~repro.cluster.hardware.ClusterSpec`,
schedules map/reduce tasks with per-node slots, models the map-side
sort/spill/merge, the shuffle (with slowstart slot occupation), and the
reduce-side multipass merge, and reports the Table 6/7-style timings
plus Fig 7/10-style traces.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.fluid import FluidSimulator, Phase, Resource, SimTask
from repro.cluster.hardware import ClusterSpec
from repro.errors import SimulationError

REFERENCE_GHZ = 2.4


class ClusterModel:
    """Resources of every node: CPU pool, disks, NIC."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.nodes = spec.node_names()
        self.ghz_ratio = spec.node.core_ghz / REFERENCE_GHZ
        self.cpu: Dict[str, Resource] = {}
        self.disks: Dict[str, List[Resource]] = {}
        self.nic: Dict[str, Resource] = {}
        for name in self.nodes:
            self.cpu[name] = Resource(
                f"{name}/cpu", spec.node.cores * self.ghz_ratio
            )
            self.disks[name] = [
                Resource(f"{name}/disk{d}", spec.node.disk_bandwidth)
                for d in range(spec.node.disks)
            ]
            self.nic[name] = Resource(f"{name}/nic", spec.node.network_bandwidth)

    def disk_for(self, node: str, index: int) -> Resource:
        disks = self.disks[node]
        return disks[index % len(disks)]


class MapTaskSpec(NamedTuple):
    """Work of one map task."""

    input_bytes: float
    cpu_core_seconds: float
    threads: int = 1
    startup_core_seconds: float = 0.0
    transform_core_seconds: float = 0.0
    output_bytes: float = 0.0
    #: Sorted runs spilled; >1 forces a map-side merge pass.
    spills: int = 1
    #: Node holding the task's logical partition (data locality).
    preferred_node: Optional[str] = None


class ReduceTaskSpec(NamedTuple):
    """Work of one reduce task."""

    shuffle_bytes: float
    merge_extra_bytes: float
    cpu_core_seconds: float
    transform_core_seconds: float = 0.0
    output_bytes: float = 0.0


class RoundSpec:
    """A full MapReduce round to simulate."""

    def __init__(
        self,
        name: str,
        map_tasks: List[MapTaskSpec],
        map_slots_per_node: int,
        reduce_tasks: Optional[List[ReduceTaskSpec]] = None,
        reduce_slots_per_node: int = 0,
        slowstart: float = 0.05,
    ):
        if map_slots_per_node < 1:
            raise SimulationError("need at least one map slot per node")
        self.name = name
        self.map_tasks = map_tasks
        self.map_slots_per_node = map_slots_per_node
        self.reduce_tasks = reduce_tasks or []
        self.reduce_slots_per_node = reduce_slots_per_node
        self.slowstart = slowstart


class SimulatedTaskReport(NamedTuple):
    """Timing of one task for the Fig 7 progress plot."""

    task_id: str
    kind: str
    node: str
    phases: List[Tuple[str, float, float]]

    @property
    def start(self) -> float:
        return self.phases[0][1] if self.phases else 0.0

    @property
    def end(self) -> float:
        return self.phases[-1][2] if self.phases else 0.0

    def phase_duration(self, *labels: str) -> float:
        return sum(t1 - t0 for name, t0, t1 in self.phases if name in labels)


class RoundResult:
    """Timings and traces of one simulated round."""

    def __init__(self, name: str):
        self.name = name
        self.wall_seconds = 0.0
        self.tasks: List[SimulatedTaskReport] = []
        self.trace = None
        self.serial_slot_seconds = 0.0
        #: Map tasks that ran on their preferred (data-local) node.
        self.data_local_maps = 0

    def tasks_of(self, kind: str) -> List[SimulatedTaskReport]:
        return [task for task in self.tasks if task.kind == kind]

    def avg_map_seconds(self) -> float:
        maps = self.tasks_of("map")
        if not maps:
            return 0.0
        return sum(t.end - t.start for t in maps) / len(maps)

    def avg_phase_seconds(self, kind: str, *labels: str) -> float:
        tasks = self.tasks_of(kind)
        if not tasks:
            return 0.0
        return sum(t.phase_duration(*labels) for t in tasks) / len(tasks)

    def avg_shuffle_merge_seconds(self) -> float:
        return self.avg_phase_seconds(
            "reduce", "shuffle-net", "shuffle-write", "merge", "wait-maps"
        )

    def avg_reduce_seconds(self) -> float:
        return self.avg_phase_seconds(
            "reduce", "reduce-cpu", "transform", "output-write"
        )

    def __repr__(self) -> str:
        return f"RoundResult({self.name}, wall={self.wall_seconds:.0f}s)"


def simulate_round(cluster: ClusterModel, spec: RoundSpec) -> RoundResult:
    """Run one MapReduce round through the fluid simulator."""
    ghz = cluster.ghz_ratio
    map_slots = spec.map_slots_per_node
    reduce_slots = spec.reduce_slots_per_node
    state = {
        "map_queue": list(enumerate(spec.map_tasks)),
        "maps_running": {node: 0 for node in cluster.nodes},
        "maps_done": 0,
        "reduce_started": False,
        "reduces_running": {node: 0 for node in cluster.nodes},
        "reduce_queue": list(enumerate(spec.reduce_tasks)),
        "waiting_merge": [],  # (task_obj, reduce_spec, node, disk_idx)
        "task_meta": {},  # id(task) -> (kind, node, spec, disk_idx)
        "next_disk": {node: 0 for node in cluster.nodes},
        "data_local": 0,
    }
    _sim_holder: Dict[str, FluidSimulator] = {}
    total_maps = len(spec.map_tasks)

    def build_map_task(index: int, mspec: MapTaskSpec, node: str,
                       disk_idx: int) -> SimTask:
        disk = cluster.disk_for(node, disk_idx)
        cpu = cluster.cpu[node]
        cap = mspec.threads * ghz
        phases = [
            Phase(disk, mspec.input_bytes, rate_cap=None, label="input-read"),
            Phase(cpu, mspec.startup_core_seconds, rate_cap=1 * ghz,
                  label="startup"),
            Phase(cpu, mspec.cpu_core_seconds, rate_cap=cap, label="map-cpu"),
            Phase(cpu, mspec.transform_core_seconds, rate_cap=1 * ghz,
                  label="transform"),
            Phase(disk, mspec.output_bytes, label="spill-write"),
        ]
        if mspec.spills > 1:
            # Map-side merge: re-read and re-write the whole output.
            phases.append(
                Phase(disk, 2 * mspec.output_bytes, label="map-merge")
            )
        return SimTask(f"{spec.name}-m-{index:05d}", phases)

    def build_shuffle_task(index: int, rspec: ReduceTaskSpec, node: str,
                           disk_idx: int) -> SimTask:
        disk = cluster.disk_for(node, disk_idx)
        nic = cluster.nic[node]
        return SimTask(
            f"{spec.name}-r-{index:05d}",
            [
                Phase(nic, rspec.shuffle_bytes, label="shuffle-net"),
                Phase(disk, rspec.shuffle_bytes, label="shuffle-write"),
            ],
        )

    def extend_with_merge(task: SimTask, rspec: ReduceTaskSpec, node: str,
                          disk_idx: int) -> None:
        disk = cluster.disk_for(node, disk_idx)
        cpu = cluster.cpu[node]
        task.phases.extend(
            [
                Phase(disk, rspec.merge_extra_bytes, label="merge"),
                Phase(cpu, rspec.cpu_core_seconds, rate_cap=1 * ghz,
                      label="reduce-cpu"),
                Phase(cpu, rspec.transform_core_seconds, rate_cap=1 * ghz,
                      label="transform"),
                Phase(disk, rspec.output_bytes, label="output-write"),
            ]
        )

    def _launch_map(index: int, mspec: MapTaskSpec, node: str,
                    local: bool) -> None:
        disk_idx = state["next_disk"][node]
        state["next_disk"][node] += 1
        task = build_map_task(index, mspec, node, disk_idx)
        state["task_meta"][id(task)] = ("map", node, mspec, disk_idx)
        state["maps_running"][node] += 1
        if local:
            state["data_local"] += 1
        _sim_holder["sim"].start_task(task)

    def controller(sim: FluidSimulator, now: float) -> None:
        _sim_holder["sim"] = sim
        # Account completions.
        for task in sim.completed:
            meta = state["task_meta"].pop(id(task), None)
            if meta is None:
                continue
            kind, node, tspec, disk_idx = meta
            if kind == "map":
                state["maps_done"] += 1
                state["maps_running"][node] -= 1
            elif kind == "reduce":
                state["reduces_running"][node] -= 1
            elif kind == "shuffle":
                # Shuffle finished; merge+reduce must wait for all maps.
                state["waiting_merge"].append((task, tspec, node, disk_idx))

        # Release merges once every map is done.
        if state["maps_done"] == total_maps and state["waiting_merge"]:
            for task, rspec, node, disk_idx in state["waiting_merge"]:
                wait_start = task.phase_times[-1][2] if task.phase_times else now
                if now > wait_start:
                    task.phase_times.append(("wait-maps", wait_start, now))
                extend_with_merge(task, rspec, node, disk_idx)
                task.end_time = None
                state["task_meta"][id(task)] = ("reduce", node, rspec, disk_idx)
                sim.completed.remove(task)
                sim.active.append(task)
            state["waiting_merge"] = []

        # Schedule maps into free slots, honouring data locality: a
        # task whose logical partition lives on a node with a free slot
        # runs there; otherwise it takes any free slot (rack-remote).
        progress = True
        while progress and state["map_queue"]:
            progress = False
            free_nodes = [
                node for node in cluster.nodes
                if state["maps_running"][node] < map_slots
            ]
            if not free_nodes:
                break
            # First pass: place tasks on their preferred nodes.
            remaining = []
            for index, mspec in state["map_queue"]:
                preferred = mspec.preferred_node
                if (
                    preferred in state["maps_running"]
                    and state["maps_running"][preferred] < map_slots
                ):
                    _launch_map(index, mspec, preferred, local=True)
                    progress = True
                else:
                    remaining.append((index, mspec))
            state["map_queue"] = remaining
            # Second pass: fill leftover slots in node order.
            for node in cluster.nodes:
                while (
                    state["map_queue"]
                    and state["maps_running"][node] < map_slots
                ):
                    index, mspec = state["map_queue"].pop(0)
                    _launch_map(index, mspec, node, local=False)
                    progress = True

        # Start reducers at slowstart.
        if (
            spec.reduce_tasks
            and not state["reduce_started"]
            and state["maps_done"] >= math.ceil(spec.slowstart * total_maps)
        ):
            state["reduce_started"] = True
        if state["reduce_started"] and state["reduce_queue"]:
            still_queued = []
            for index, rspec in state["reduce_queue"]:
                node = cluster.nodes[index % len(cluster.nodes)]
                if state["reduces_running"][node] < reduce_slots:
                    disk_idx = state["next_disk"][node]
                    state["next_disk"][node] += 1
                    task = build_shuffle_task(index, rspec, node, disk_idx)
                    state["task_meta"][id(task)] = ("shuffle", node, rspec, disk_idx)
                    state["reduces_running"][node] += 1
                    sim.start_task(task)
                else:
                    still_queued.append((index, rspec))
            state["reduce_queue"] = still_queued

    sim = FluidSimulator(controller)
    wall = sim.run()

    result = RoundResult(spec.name)
    result.wall_seconds = wall
    result.trace = sim.trace
    result.data_local_maps = state["data_local"]
    for task in sim.completed:
        kind = "map" if "-m-" in task.task_id else "reduce"
        node = task.phases[0].resource.name.split("/")[0]
        report = SimulatedTaskReport(task.task_id, kind, node, task.phase_times)
        result.tasks.append(report)
        cores = 1
        if kind == "map":
            cores = max(
                1,
                int(round((task.phases[2].rate_cap or ghz) / ghz))
                if len(task.phases) > 2 else 1,
            )
        result.serial_slot_seconds += (report.end - report.start) * cores
    result.tasks.sort(key=lambda t: t.task_id)
    return result
