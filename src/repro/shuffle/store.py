"""Where segments live between the map and reduce waves.

Real Hadoop serves map output over an HTTP fast path with *no*
filesystem checksum in the loop — the reducer's IFile checksum is the
only integrity check, and a failed check triggers a refetch.  The
:class:`SegmentStore` models exactly that: writes replicate the blob,
reads deliberately take an unverified fast path to one replica, and
the segment's own end-to-end CRC32 (checked by :meth:`fetch`) is what
catches rot, failing over to the next replica on a refetch.

Three backends share the contract:

* :class:`HdfsSegmentBackend` keeps segments on the simulated HDFS
  (``Hdfs.read_unverified`` is the short-circuit read), so segment
  corruption composes with the PR-3 chaos machinery — datanode kills,
  replica rot and re-replication all apply to shuffle data too.
* :class:`LocalSegmentBackend` is a dict of replicated byte copies for
  engines with no filesystem attached (unit-test word counts).
* :class:`DiskSegmentBackend` puts real replica files on real spill
  directories through the :mod:`repro.io` durability contract, with
  degraded-mode routing: ENOSPC on the primary spill directory falls
  back to the next one, and when every directory is full, replicas are
  shed down to ``IoPolicy.min_replicas`` before the job fails.

A reduce task reads none of them directly: the driver snapshots the
replica chains its fetches would read into a read-only
:class:`ShippedReplicaBackend` that travels with the task's call.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple

from repro.errors import (
    HdfsError,
    ShuffleCorruptionError,
    ShuffleError,
    StorageFullError,
)
from repro.shuffle.segment import (
    DecodedSegment,
    decode_segment,
    verify_segment,
)


class FetchResult(NamedTuple):
    """One verified segment plus the work it took to get it."""

    segment: DecodedSegment
    #: Fetch attempts that served bytes failing the segment CRC.
    crc_failures: int
    #: Extra fetch attempts beyond the first.
    refetches: int


class LocalSegmentBackend:
    """Replicated in-memory copies, for engines without a filesystem."""

    def __init__(self, replicas: int = 3):
        if replicas < 1:
            raise ShuffleError("a segment needs at least one replica")
        self.replicas = replicas
        self._copies: Dict[str, List[bytes]] = {}

    def put(self, path: str, blob: bytes) -> None:
        if path in self._copies:
            raise ShuffleError(f"segment exists: {path}")
        self._copies[path] = [blob] * self.replicas

    def read(self, path: str, replica_choice: int) -> bytes:
        copies = self._segment(path)
        return copies[replica_choice % len(copies)]

    def corrupt(self, path: str, replica_index: int = 0) -> str:
        """Flip a byte in one copy; returns a descriptor of the victim."""
        copies = self._segment(path)
        index = replica_index % len(copies)
        blob = copies[index]
        copies[index] = (
            bytes([blob[0] ^ 0xFF]) + blob[1:] if blob else b"\xff"
        )
        return f"copy-{index}"

    def delete(self, path: str) -> None:
        self._copies.pop(path, None)

    def paths(self) -> List[str]:
        return sorted(self._copies)

    def _segment(self, path: str) -> List[bytes]:
        try:
            return self._copies[path]
        except KeyError:
            raise ShuffleError(f"no such segment: {path}") from None


class ShippedReplicaBackend:
    """Read-only replica chains snapshotted for a reduce task.

    A reduce task never reads the live store: the driver snapshots each
    of its segments' replica chains (:meth:`SegmentStore.snapshot`) and
    ships the blobs inside the reduce call, on every executor — a
    forked pool worker could not reach the live backend anyway (it
    wraps driver-side state created after the fork).  The task fetches
    from a store over this backend through the identical
    CRC-verify/failover path, so corruption handling — and every fetch
    counter — is what a read of the live store would give.  It only
    reads: nothing writes, rots or deletes a shipped chain.
    """

    def __init__(self, replicas: Dict[str, List[bytes]]):
        self._replicas = replicas

    def read(self, path: str, replica_choice: int) -> bytes:
        try:
            chain = self._replicas[path]
        except KeyError:
            raise ShuffleError(f"no such segment: {path}") from None
        return chain[replica_choice % len(chain)]


class HdfsSegmentBackend:
    """Segments as (small) replicated files on the simulated HDFS."""

    def __init__(self, fs):
        self._fs = fs

    def put(self, path: str, blob: bytes) -> None:
        self._fs.put(path, blob)

    def read(self, path: str, replica_choice: int) -> bytes:
        return self._fs.read_unverified(path, replica_choice)

    def corrupt(self, path: str, replica_index: int = 0) -> str:
        # Segments are single-block in practice; rotting block 0 of the
        # chosen replica chain is enough to fail the segment CRC.
        return self._fs.corrupt_replica(
            path, block_index=0, replica_index=replica_index
        )

    def delete(self, path: str) -> None:
        if self._fs.exists(path):
            self._fs.delete(path)

    def paths(self) -> List[str]:
        return self._fs.list_dir("/shuffle")


class DiskSegmentBackend:
    """Replica files on spill directories, via the durable-I/O layer.

    Replica ``k`` of logical path ``/shuffle/job/map-i/seg-r.bin``
    lands at ``<dir>/shuffle/job/map-i/seg-r.bin.r<k>`` in the first
    spill directory with room: every write walks ``spill_dirs`` in
    order, so an ENOSPC on the primary degrades the replica to a
    secondary (``io.fallback_spills``) instead of failing the task.
    When no directory can take a replica, the remaining copies are
    *shed* (``io.replicas_shed``) as long as ``min_replicas`` already
    landed; below that the put raises
    :class:`~repro.errors.StorageFullError` and the job fails.

    Writes are atomic (temp + fsync + rename through the I/O layer),
    so a reader observes a replica file either complete or not at all —
    a crashed put never leaves a torn replica for a fetch to trip on —
    and deletes are idempotent, so cleanup after a crash between the
    delete and the journal update simply succeeds again.
    """

    def __init__(self, io, spill_dirs, replicas: int = 2,
                 min_replicas: int = 1):
        if not spill_dirs:
            raise ShuffleError("DiskSegmentBackend needs >= 1 spill dir")
        if replicas < 1:
            raise ShuffleError("a segment needs at least one replica")
        if not 1 <= min_replicas <= replicas:
            raise ShuffleError(
                "min_replicas must be within [1, replicas] "
                f"({min_replicas} vs {replicas})"
            )
        self.io = io
        self.spill_dirs = [str(d) for d in spill_dirs]
        self.replicas = replicas
        self.min_replicas = min_replicas

    @classmethod
    def from_policy(cls, io, io_policy) -> "DiskSegmentBackend":
        return cls(
            io, io_policy.spill_dirs,
            replicas=io_policy.segment_replicas,
            min_replicas=io_policy.min_replicas,
        )

    def _replica_file(self, root: str, path: str, replica: int) -> str:
        rel = path.lstrip("/").replace("/", os.sep)
        return os.path.join(root, f"{rel}.r{replica}")

    def _existing_replicas(self, path: str) -> List[str]:
        """Replica files present on disk, in (replica, dir) order."""
        found = []
        for replica in range(self.replicas):
            for root in self.spill_dirs:
                candidate = self._replica_file(root, path, replica)
                if self.io.exists(candidate):
                    found.append(candidate)
                    break
        return found

    def put(self, path: str, blob: bytes) -> None:
        placed = 0
        for replica in range(self.replicas):
            landed = False
            for dir_index, root in enumerate(self.spill_dirs):
                target = self._replica_file(root, path, replica)
                try:
                    self.io.write_atomic(target, blob)
                except StorageFullError:
                    continue
                if dir_index > 0:
                    self.io.stats.fallback_spills += 1
                placed += 1
                landed = True
                break
            if not landed:
                if placed >= self.min_replicas:
                    # Degraded mode: every directory is full but the
                    # minimum copy count already landed — shed the rest
                    # rather than failing the job.
                    self.io.stats.replicas_shed += self.replicas - replica
                    return
                raise StorageFullError(
                    f"no spill directory could take replica {replica} of "
                    f"{path} ({placed} < min_replicas "
                    f"{self.min_replicas}); dirs: {self.spill_dirs}"
                )

    def read(self, path: str, replica_choice: int) -> bytes:
        available = self._existing_replicas(path)
        if not available:
            raise ShuffleError(f"no such segment: {path}")
        target = available[replica_choice % len(available)]
        data = self.io.read_bytes(target)
        if data is None:
            raise ShuffleError(f"no such segment: {path}")
        return data

    def corrupt(self, path: str, replica_index: int = 0) -> str:
        available = self._existing_replicas(path)
        if not available:
            raise ShuffleError(f"no such segment: {path}")
        target = available[replica_index % len(available)]
        blob = self.io.read_bytes(target) or b"\xff"
        rotten = bytes([blob[0] ^ 0xFF]) + blob[1:] if blob else b"\xff"
        self.io.write_atomic(target, rotten)
        return os.path.basename(target)

    def delete(self, path: str) -> None:
        for replica in range(self.replicas):
            for root in self.spill_dirs:
                self.io.unlink(self._replica_file(root, path, replica))

    def paths(self) -> List[str]:
        logical = set()
        for root in self.spill_dirs:
            if not os.path.isdir(root):
                continue
            for dirpath, _dirnames, filenames in os.walk(root):
                for name in filenames:
                    stem, _, suffix = name.rpartition(".r")
                    if not stem or not suffix.isdigit():
                        continue
                    rel = os.path.relpath(
                        os.path.join(dirpath, stem), root
                    )
                    logical.add("/" + rel.replace(os.sep, "/"))
        return sorted(logical)


class SegmentStore:
    """Stores map output segments; serves CRC-verified reducer fetches."""

    def __init__(self, backend=None):
        self.backend = backend if backend is not None else LocalSegmentBackend()

    @classmethod
    def for_filesystem(cls, fs) -> "SegmentStore":
        """HDFS-backed when the engine has a filesystem, local otherwise."""
        if fs is not None and hasattr(fs, "read_unverified"):
            return cls(HdfsSegmentBackend(fs))
        return cls()

    def put(self, path: str, blob: bytes) -> None:
        self.backend.put(path, blob)

    def fetch(self, path: str, retries: int = 0) -> FetchResult:
        """Fetch one segment, refetching past corrupt replicas.

        Attempt *k* reads replica chain ``k``, so a refetch after a CRC
        failure naturally fails over to a different copy.  Any decode
        failure counts as corruption here — the mapper wrote a valid
        frame, so even a mangled magic means the stored bytes rotted.
        When every allowed attempt serves damaged bytes the fetch
        raises :class:`ShuffleCorruptionError` — the map output is gone.
        """
        for attempt in range(retries + 1):
            blob = self.backend.read(path, attempt)
            try:
                segment = decode_segment(blob)
            except ShuffleError:
                continue
            # Every attempt before this one served damaged bytes.
            return FetchResult(segment, attempt, attempt)
        raise ShuffleCorruptionError(
            f"segment {path} failed verification on {retries + 1} fetch "
            "attempt(s); no clean replica within the configured "
            "fetch_retries"
        )

    def snapshot(self, path: str, attempts: int) -> List[bytes]:
        """The replica chain a fetch with this budget would read.

        Fetch attempt *k* reads replica chain ``k``, and a fetch stops
        at the first chain that verifies; so does the snapshot.  Every
        chain is judged by its frame CRC alone (:func:`verify_segment`,
        no decode), each read exactly once, and a fetch over the
        shipped chains sees the same bytes, failovers and counters as
        a fetch over this store.
        """
        chain: List[bytes] = []
        for attempt in range(max(1, attempts)):
            chain.append(self.backend.read(path, attempt))
            try:
                verify_segment(chain[-1])
            except ShuffleError:
                continue
            break
        return chain

    def corrupt(self, path: str, replica_index: int = 0) -> str:
        return self.backend.corrupt(path, replica_index)

    def delete(self, path: str) -> None:
        self.backend.delete(path)

    def delete_all(self, paths) -> None:
        """Best-effort idempotent cleanup of a job's segments.

        Every backend's ``delete`` treats a missing segment as already
        deleted, and a backend error on one path must not strand the
        rest — a crash between an earlier delete and the bookkeeping
        that records it re-runs this cleanup over paths that are
        already gone.
        """
        for path in paths:
            try:
                self.backend.delete(path)
            except (ShuffleError, HdfsError, StorageFullError):
                continue

    def paths(self) -> List[str]:
        """Stored segment paths (leak checks after job cleanup)."""
        return self.backend.paths()
