"""Cluster hardware specifications (paper Table 3).

Cluster A — the dedicated research cluster: 15 data nodes, 24 cores @
2.66 GHz, 64 GB RAM, one 3 TB disk at 140 MB/s, 1 Gbps network.
Cluster B — the NYGC production cluster: 4 data nodes, 16 cores @
2.4 GHz (hyper-threading off for the study), 256 GB RAM, six 1 TB disks
at 100 MB/s, 10 Gbps network.  The two clusters have comparable total
memory but otherwise different shapes, which is what makes the Table 7
consolidation experiments interesting.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError

GB = 1024 ** 3
MB = 1024 ** 2


class NodeSpec:
    """Hardware of one data node."""

    def __init__(
        self,
        cores: int,
        core_ghz: float,
        memory_bytes: int,
        disks: int,
        disk_bandwidth: float,
        network_bandwidth: float,
    ):
        if cores < 1 or disks < 1:
            raise SimulationError("a node needs at least one core and disk")
        self.cores = cores
        self.core_ghz = core_ghz
        self.memory_bytes = memory_bytes
        self.disks = disks
        #: Per-disk sequential bandwidth, bytes/second.
        self.disk_bandwidth = disk_bandwidth
        #: NIC bandwidth, bytes/second.
        self.network_bandwidth = network_bandwidth

    def with_disks(self, disks: int) -> "NodeSpec":
        """Same node with a different number of disks (Table 7 sweeps)."""
        return NodeSpec(
            self.cores, self.core_ghz, self.memory_bytes, disks,
            self.disk_bandwidth, self.network_bandwidth,
        )

    def __repr__(self) -> str:
        return (
            f"NodeSpec({self.cores} cores@{self.core_ghz}GHz, "
            f"{self.memory_bytes // GB}GB, {self.disks} disks)"
        )


class ClusterSpec:
    """A named cluster of identical data nodes."""

    def __init__(self, name: str, data_nodes: int, node: NodeSpec):
        if data_nodes < 1:
            raise SimulationError("cluster needs at least one data node")
        self.name = name
        self.data_nodes = data_nodes
        self.node = node

    def node_names(self) -> List[str]:
        return [f"{self.name}-n{i:02d}" for i in range(self.data_nodes)]

    def total_memory(self) -> int:
        return self.data_nodes * self.node.memory_bytes

    def with_data_nodes(self, data_nodes: int) -> "ClusterSpec":
        """Same hardware, fewer/more nodes (Table 5 scale-up sweeps)."""
        return ClusterSpec(self.name, data_nodes, self.node)

    def with_disks(self, disks: int) -> "ClusterSpec":
        return ClusterSpec(self.name, self.data_nodes, self.node.with_disks(disks))

    def __repr__(self) -> str:
        return f"ClusterSpec({self.name}, {self.data_nodes} x {self.node})"


#: Cluster A (research): 15 data nodes (plus name nodes not modelled).
CLUSTER_A = ClusterSpec(
    "clusterA",
    data_nodes=15,
    node=NodeSpec(
        cores=24,
        core_ghz=2.66,
        memory_bytes=64 * GB,
        disks=1,
        disk_bandwidth=140 * MB,
        network_bandwidth=int(1e9 / 8),  # 1 Gbps
    ),
)

#: Cluster B (NYGC production): 4 data nodes.
CLUSTER_B = ClusterSpec(
    "clusterB",
    data_nodes=4,
    node=NodeSpec(
        cores=16,
        core_ghz=2.4,
        memory_bytes=256 * GB,
        disks=6,
        disk_bandwidth=100 * MB,
        network_bandwidth=int(10e9 / 8),  # 10 Gbps
    ),
)

#: The single server of section 2.2 (Table 2 baseline).
SINGLE_SERVER = ClusterSpec(
    "single",
    data_nodes=1,
    node=NodeSpec(
        cores=12,
        core_ghz=2.4,
        memory_bytes=64 * GB,
        disks=1,
        disk_bandwidth=120 * MB,
        network_bandwidth=int(1e9 / 8),
    ),
)
