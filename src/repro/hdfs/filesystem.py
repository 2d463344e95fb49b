"""In-memory HDFS: namenode + datanodes.

Functional stand-in for the storage layer of the paper's platform.
Stores blocks in memory (our datasets are laptop-scale), tracks
placement, and serves whole-file reads (how every round reads a
logical partition), per-block reads, and byte-range reads that cross
block boundaries.

Fault tolerance mirrors real HDFS (paper section 2): every read is
served from a checksum-verified replica, failing over to the next
replica when one is corrupt or its datanode is down; datanodes can be
abruptly killed (:meth:`Hdfs.kill_datanode`) or gracefully drained
(:meth:`Hdfs.decommission`); a re-replication pass restores the
replication factor onto surviving live nodes.  Only when *every*
replica of a block is gone or corrupt does a read raise
:class:`~repro.errors.BlockLostError`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import BlockLostError, HdfsError
from repro.hdfs.blocks import (
    DEFAULT_BLOCK_SIZE,
    Datanode,
    HdfsBlock,
    HdfsFile,
    split_into_blocks,
)
from repro.hdfs.placement import BlockPlacementPolicy, LogicalBlockPlacementPolicy
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import NULL_RECORDER


def _serve(block: HdfsBlock, alive, metrics, drop=None) -> bytes:
    """``block``'s first replica on an ``alive`` datanode that passes the
    checksum; failovers, corrupt replicas (each told to ``drop``) and a
    lost block count into ``metrics``."""
    served: Optional[bytes] = None
    corrupt: List[str] = []
    for position, node in enumerate(block.replicas):
        if node not in alive:
            continue
        if not block.replica_is_healthy(node):
            corrupt.append(node)
            metrics.counter("hdfs.read.corrupt_replicas").inc()
            continue
        if position > 0:
            metrics.counter("hdfs.read.failovers").inc()
        served = block.replica_bytes(node)
        break
    for node in corrupt if drop is not None else ():
        drop(block, node)
    if served is None:
        metrics.counter("hdfs.blocks.lost").inc()
        raise BlockLostError(
            f"all replicas of {block.block_id} are gone or corrupt"
        )
    return served


class FileRead:
    """One file's read as :meth:`Hdfs.open` resolves it: its blocks,
    replica bytes included, so a map split holding one pickles with its
    data.  :meth:`read` is ``Hdfs.get``'s read, counted into the
    reader's registry; only the namenode's ``drop`` edits the namespace,
    so a corrupt replica a task passes over stays listed."""

    __slots__ = ("blocks", "alive")

    def __init__(self, blocks: List[HdfsBlock], alive):
        self.blocks = blocks
        self.alive = alive

    def read(self, metrics=NULL_METRICS, drop=None) -> bytes:
        data = b"".join(
            _serve(block, self.alive, metrics, drop) for block in self.blocks
        )
        metrics.counter("hdfs.get.calls").inc()
        metrics.counter("hdfs.get.bytes").inc(len(data))
        return data


class Hdfs:
    """The distributed filesystem facade (namenode view)."""

    def __init__(self, nodes: List[str], replication: int = 3,
                 block_size: int = DEFAULT_BLOCK_SIZE, recorder=None):
        if not nodes:
            raise HdfsError("an HDFS cluster needs at least one datanode")
        self.nodes = list(nodes)
        self.block_size = block_size
        self.replication = replication
        self.default_policy = BlockPlacementPolicy(replication)
        self.logical_policy = LogicalBlockPlacementPolicy(replication)
        self._files: Dict[str, HdfsFile] = {}
        self._blocks: Dict[str, HdfsBlock] = {}
        self._datanodes: Dict[str, Datanode] = {
            name: Datanode(name) for name in nodes
        }
        self._next_block = 0
        #: Byte/call counters live in the recorder's metrics registry,
        #: cached so the traced fast path stays two attribute loads + one
        #: ``inc``.  A pool worker counts into its fork's copy; its
        #: replies ship each task's counts back to the driver's.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        metrics = self.recorder.metrics
        self._ctr_put_calls = metrics.counter("hdfs.put.calls")
        self._ctr_put_bytes = metrics.counter("hdfs.put.bytes")
        self._ctr_get_calls = metrics.counter("hdfs.get.calls")
        self._ctr_get_bytes = metrics.counter("hdfs.get.bytes")
        self._ctr_delete_calls = metrics.counter("hdfs.delete.calls")
        self._ctr_rereplicated = metrics.counter("hdfs.rereplicated.replicas")
        self._ctr_blocks_lost = metrics.counter("hdfs.blocks.lost")
        self._ctr_nodes_killed = metrics.counter("hdfs.datanodes.killed")
        self._ctr_nodes_decommissioned = metrics.counter(
            "hdfs.datanodes.decommissioned"
        )

    # -- writes ----------------------------------------------------------------
    def put(self, path: str, data: bytes, logical_partition: bool = False,
            block_size: Optional[int] = None, overwrite: bool = False) -> HdfsFile:
        """Upload a file; logical partitions use the custom placement.

        ``overwrite=True`` atomically replaces an existing file
        (checkpoint manifests are rewritten after every round); without
        it a duplicate path is an error, as in real HDFS.
        """
        if path in self._files:
            if not overwrite:
                raise HdfsError(f"file exists: {path}")
            self.delete(path)
        self._ctr_put_calls.inc()
        self._ctr_put_bytes.inc(len(data))
        block_size = block_size or self.block_size
        policy = self.logical_policy if logical_partition else self.default_policy
        pieces = split_into_blocks(data, block_size)
        placements = policy.place_file(path, len(pieces), self.live_nodes())
        blocks = []
        for piece, replicas in zip(pieces, placements):
            block_id = f"blk_{self._next_block:08d}"
            self._next_block += 1
            block = HdfsBlock(block_id, piece, replicas)
            self._blocks[block_id] = block
            for node in replicas:
                self._datanodes[node].block_ids.add(block_id)
            blocks.append(block)
        hdfs_file = HdfsFile(path, blocks, block_size, logical_partition)
        self._files[path] = hdfs_file
        return hdfs_file

    def delete(self, path: str) -> None:
        hdfs_file = self._file(path)
        self._ctr_delete_calls.inc()
        for block in hdfs_file.blocks:
            del self._blocks[block.block_id]
            for node in block.replicas:
                self._datanodes[node].block_ids.discard(block.block_id)
        del self._files[path]

    # -- reads ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def get(self, path: str) -> bytes:
        """Serve a file, each block from a checksum-verified replica.

        Replicas are tried in placement order.  A replica on a dead
        datanode is skipped; a corrupt one (CRC32 mismatch) is counted,
        dropped from the namenode's placement map — exactly what a real
        namenode does on a checksum exception — and the read fails over
        to the next replica.  When no replica can serve clean bytes the
        block's data is unrecoverable and :class:`BlockLostError`
        propagates.
        """
        return self.open(path).read(self.recorder.metrics, self._drop_corrupt)

    def get_file(self, path: str) -> HdfsFile:
        return self._file(path)

    def list_dir(self, prefix: str) -> List[str]:
        if not prefix.endswith("/"):
            prefix += "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def open(self, path: str) -> "FileRead":
        """``path``'s blocks and the datanodes alive now, for a task."""
        alive = {name for name, node in self._datanodes.items() if node.alive}
        return FileRead(self._file(path).blocks, alive)

    def _drop_corrupt(self, block: HdfsBlock, node: str) -> None:
        block.drop_replica(node)
        self._datanodes[node].block_ids.discard(block.block_id)

    def read_unverified(self, path: str, replica_choice: int = 0) -> bytes:
        """Short-circuit read: one replica chain, no checksum check.

        The shuffle fast path.  Each block is served from the alive
        replica at ``replica_choice`` (mod the alive count) *without*
        CRC verification, so the bytes may be corrupt — the caller owns
        end-to-end integrity (shuffle segments carry their own CRC32)
        and retries with the next ``replica_choice`` to fail over.
        Only a block with no alive replica at all raises
        :class:`BlockLostError` here.
        """
        self._ctr_get_calls.inc()
        pieces = []
        for block in self._file(path).blocks:
            alive = [
                n for n in block.replicas if self._datanodes[n].alive
            ]
            if not alive:
                self._ctr_blocks_lost.inc()
                raise BlockLostError(
                    f"no alive replica of {block.block_id}"
                )
            node = alive[replica_choice % len(alive)]
            pieces.append(block.replica_bytes(node))
        data = b"".join(pieces)
        self._ctr_get_bytes.inc(len(data))
        return data

    # -- topology ----------------------------------------------------------------
    def blocks_of(self, path: str) -> List[HdfsBlock]:
        return list(self._file(path).blocks)

    def block_offsets(self, path: str) -> List[int]:
        """Byte offset of each block within the file."""
        offsets = []
        position = 0
        for block in self._file(path).blocks:
            offsets.append(position)
            position += block.size
        return offsets

    def nodes_with_replica(self, block_id: str) -> List[str]:
        try:
            return list(self._blocks[block_id].replicas)
        except KeyError:
            raise HdfsError(f"unknown block {block_id}") from None

    def datanode(self, name: str) -> Datanode:
        try:
            return self._datanodes[name]
        except KeyError:
            raise HdfsError(f"unknown datanode {name!r}") from None

    def live_nodes(self) -> List[str]:
        """Datanodes that can serve reads and accept new replicas."""
        return [n for n in self.nodes if self._datanodes[n].is_live]

    # -- failures & repair -------------------------------------------------------
    def kill_datanode(self, name: str, re_replicate: bool = True) -> Dict[str, int]:
        """Abruptly lose a datanode: its replicas vanish immediately.

        Unlike :meth:`decommission` there is no drain window — replicas
        on the node are dropped first, then (by default) a
        re-replication pass restores the replication factor from the
        surviving copies.  Blocks whose only replicas lived here are
        permanently lost.
        """
        node = self.datanode(name)
        if not node.alive:
            return {"restored": 0, "lost": 0}
        node.alive = False
        self._ctr_nodes_killed.inc()
        for block_id in list(node.block_ids):
            block = self._blocks.get(block_id)
            if block is not None:
                block.drop_replica(name)
        node.block_ids.clear()
        if re_replicate:
            return self.re_replicate()
        return {"restored": 0, "lost": 0}

    def decommission(self, name: str) -> Dict[str, int]:
        """Gracefully drain a datanode before retiring it.

        Its replicas are copied onto surviving live nodes *first* (the
        draining node keeps serving as a copy source, as real HDFS
        decommissioning does), so redundancy never dips.  Calling this
        twice on the same node is a no-op — the set-based replica index
        makes the second drain harmless.
        """
        node = self.datanode(name)
        if node.decommissioned or not node.alive:
            return {"restored": 0, "lost": 0}
        node.decommissioned = True
        self._ctr_nodes_decommissioned.inc()
        report = self.re_replicate()
        for block_id in list(node.block_ids):
            block = self._blocks.get(block_id)
            if block is not None:
                block.drop_replica(name)
        node.block_ids.clear()
        return report

    def re_replicate(self) -> Dict[str, int]:
        """Restore the replication factor from surviving healthy copies.

        For every under-replicated block, new replicas of the canonical
        bytes are created on the live nodes with the fewest stored
        replicas (deterministic tie-break on node name).  Blocks with
        no healthy source replica anywhere are reported as ``lost`` —
        nothing can resurrect them.
        """
        live = self.live_nodes()
        target = min(self.replication, len(live)) if live else 0
        restored = 0
        lost = 0
        for block_id in sorted(self._blocks):
            block = self._blocks[block_id]
            healthy = [
                n for n in block.replicas
                if self._datanodes[n].alive and block.replica_is_healthy(n)
            ]
            if not healthy:
                lost += 1
                continue
            serving = [n for n in healthy if self._datanodes[n].is_live]
            while len(serving) < target:
                candidates = sorted(
                    (n for n in live if n not in block.replicas),
                    key=lambda n: (len(self._datanodes[n].block_ids), n),
                )
                if not candidates:
                    break
                chosen = candidates[0]
                block.add_replica(chosen)
                self._datanodes[chosen].block_ids.add(block_id)
                serving.append(chosen)
                restored += 1
                self._ctr_rereplicated.inc()
        return {"restored": restored, "lost": lost}

    def corrupt_replica(self, path: str, block_index: int = 0,
                        replica_index: int = 0) -> str:
        """Rot one replica of one block of a file; returns the node hit."""
        blocks = self._file(path).blocks
        if not 0 <= block_index < len(blocks):
            raise HdfsError(
                f"{path} has no block index {block_index}"
            )
        block = blocks[block_index]
        if not 0 <= replica_index < len(block.replicas):
            raise HdfsError(
                f"{block.block_id} has no replica index {replica_index}"
            )
        node = block.replicas[replica_index]
        block.corrupt_replica(node)
        return node

    def used_bytes_by_node(self) -> Dict[str, int]:
        return {
            name: node.used_bytes(self._blocks)
            for name, node in self._datanodes.items()
        }

    def files(self) -> Iterator[HdfsFile]:
        for path in sorted(self._files):
            yield self._files[path]

    def _file(self, path: str) -> HdfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise HdfsError(f"no such file: {path}") from None

    def __repr__(self) -> str:
        return f"Hdfs({len(self.nodes)} nodes, {len(self._files)} files)"
