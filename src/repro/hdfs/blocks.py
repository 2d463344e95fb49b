"""HDFS data model: blocks, files, datanodes.

A file uploaded to HDFS is split into fixed-size blocks (default
128 MB in real Hadoop; configurable here so tests can use tiny blocks)
that are replicated across datanodes.  Gesall's storage substrate sits
on top: BAM chunk frames may span block boundaries, and logical
partition files are pinned to a single node (section 3.1).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Set

from repro.errors import HdfsError

#: Real HDFS default block size; tests typically pass something tiny.
DEFAULT_BLOCK_SIZE = 128 * 1024 * 1024


class HdfsBlock:
    """One replicated block of file data.

    ``data`` and ``checksum`` are the canonical truth recorded at write
    time.  Each replica normally serves the canonical bytes; a replica
    that rots (bit flips on one datanode's disk) diverges into
    ``_divergent`` while the canonical copy stays intact, which is how
    real HDFS behaves — the namenode knows the expected checksum and a
    bad replica is detected on read and re-replicated from a good one.
    """

    __slots__ = (
        "block_id", "data", "replicas", "checksum", "_divergent", "_verified",
    )

    def __init__(self, block_id: str, data: bytes, replicas: List[str]):
        self.block_id = block_id
        self.data = data
        #: Datanode names holding a replica; the first is primary.
        self.replicas = list(replicas)
        #: CRC32 of the canonical bytes, computed once at write time.
        self.checksum = zlib.crc32(data)
        #: Per-node divergent copies (corrupted replicas only).
        self._divergent: Dict[str, bytes] = {}
        #: Nodes whose replica already passed verification.  Replicas
        #: only diverge through :meth:`corrupt_replica` (which
        #: invalidates the entry), so a clean verdict stays valid and
        #: the hot read path pays CRC32 once per replica, not per read.
        self._verified: Set[str] = set()

    @property
    def size(self) -> int:
        return len(self.data)

    def replica_bytes(self, node: str) -> bytes:
        """The bytes this node's replica would serve (may be corrupt)."""
        if node not in self.replicas:
            raise HdfsError(
                f"node {node!r} holds no replica of {self.block_id}"
            )
        return self._divergent.get(node, self.data)

    def replica_is_healthy(self, node: str) -> bool:
        """Checksum-verify one replica against the canonical CRC32."""
        if node in self._verified:
            return True
        healthy = zlib.crc32(self.replica_bytes(node)) == self.checksum
        if healthy:
            self._verified.add(node)
        return healthy

    def corrupt_replica(self, node: str) -> None:
        """Deterministically flip bits in this node's replica only."""
        clean = self.replica_bytes(node)
        if clean:
            rotten = bytes([clean[0] ^ 0xFF]) + clean[1:]
        else:
            rotten = b"\xff"  # even an empty block can rot on disk
        self._divergent[node] = rotten
        self._verified.discard(node)

    def add_replica(self, node: str) -> None:
        """Register a fresh (canonical, healthy) replica on ``node``."""
        if node not in self.replicas:
            self.replicas.append(node)
        self._divergent.pop(node, None)
        self._verified.discard(node)

    def drop_replica(self, node: str) -> None:
        """Forget this node's replica (node death or decommission)."""
        if node in self.replicas:
            self.replicas.remove(node)
        self._divergent.pop(node, None)
        self._verified.discard(node)

    def __repr__(self) -> str:
        return f"HdfsBlock({self.block_id}, {self.size}B, on {self.replicas})"


class HdfsFile:
    """A file: an ordered list of blocks plus Gesall metadata."""

    def __init__(self, path: str, blocks: List[HdfsBlock], block_size: int,
                 logical_partition: bool = False):
        self.path = path
        self.blocks = blocks
        self.block_size = block_size
        #: True when the file is one logical partition whose blocks were
        #: co-located on a single node by the custom placement policy.
        self.logical_partition = logical_partition

    @property
    def size(self) -> int:
        return sum(block.size for block in self.blocks)

    def data(self) -> bytes:
        return b"".join(block.data for block in self.blocks)

    def __repr__(self) -> str:
        kind = "logical" if self.logical_partition else "physical"
        return f"HdfsFile({self.path}, {len(self.blocks)} blocks, {kind})"


def split_into_blocks(data: bytes, block_size: int) -> List[bytes]:
    """Split a byte stream into fixed-size pieces (last may be short)."""
    if block_size <= 0:
        raise HdfsError("block size must be positive")
    return [data[i : i + block_size] for i in range(0, len(data), block_size)] or [b""]


class Datanode:
    """Bookkeeping view of one datanode's stored replicas.

    ``block_ids`` is a set: replica membership is unordered, removal is
    O(1), and idempotent operations (double-decommission, re-dropping a
    dead node's replicas) cannot corrupt the placement index the way a
    second ``list.remove`` would.
    """

    def __init__(self, name: str):
        self.name = name
        self.block_ids: Set[str] = set()
        #: False once the node has been abruptly killed.
        self.alive = True
        #: True once the node was gracefully drained.
        self.decommissioned = False

    @property
    def is_live(self) -> bool:
        """Whether the node can serve reads and accept new replicas."""
        return self.alive and not self.decommissioned

    def used_bytes(self, blocks: Dict[str, HdfsBlock]) -> int:
        return sum(blocks[bid].size for bid in self.block_ids if bid in blocks)

    def __repr__(self) -> str:
        state = "live" if self.is_live else (
            "decommissioned" if self.decommissioned else "dead"
        )
        return f"Datanode({self.name}, {len(self.block_ids)} replicas, {state})"
