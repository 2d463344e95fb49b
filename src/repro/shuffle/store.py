"""Where segments live between the map and reduce waves.

Real Hadoop serves map output over an HTTP fast path with *no*
filesystem checksum in the loop — the reducer's IFile checksum is the
only integrity check, and a failed check triggers a refetch.  The
:class:`SegmentStore` models exactly that: writes replicate the blob,
reads deliberately take an unverified fast path to one replica, and
the segment's own end-to-end CRC32 (checked by :meth:`fetch`) is what
catches rot, failing over to the next replica on a refetch.

Three backends share the contract, which stores and snapshots one map
task's segments per call (:meth:`SegmentStore.put_map`,
:meth:`SegmentStore.snapshot`):

* :class:`HdfsSegmentBackend` keeps segments on the simulated HDFS
  (``Hdfs.read_unverified`` is the short-circuit read), so segment
  corruption composes with the PR-3 chaos machinery — datanode kills,
  replica rot and re-replication all apply to shuffle data too.
* :class:`LocalSegmentBackend` is a dict of replicated byte copies for
  engines with no filesystem attached (unit-test word counts).
* :class:`DiskSegmentBackend` puts one real replica file per map task
  (Hadoop's ``file.out``) on real spill directories through the
  :mod:`repro.io` durability contract, with
  degraded-mode routing: ENOSPC on the primary spill directory falls
  back to the next one, and when every directory is full, replicas are
  shed down to ``IoPolicy.min_replicas`` before the job fails.

A reduce task reads none of them directly: the driver snapshots the
replica chains its fetches would read into a read-only
:class:`ShippedReplicaBackend` that travels with the task's call.
"""

from __future__ import annotations

import os
import posixpath
from typing import Dict, List, NamedTuple, Tuple

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


class _ObjectPerSegment:
    """A backend with no per-file cost keeps one object per segment
    behind the per-map-task calls."""

    def put_map(self, paths: List[str], blobs: List[bytes]) -> None:
        for path, blob in zip(paths, blobs):
            self._put(path, blob)

    def read_map(self, paths: List[str], replica_choice: int) -> List[bytes]:
        return [self.read(path, replica_choice) for path in paths]


class LocalSegmentBackend(_ObjectPerSegment):
    """Replicated in-memory copies, for engines without a filesystem."""

    def __init__(self, replicas: int = 3):
        if replicas < 1:
            raise ShuffleError("a segment needs at least one replica")
        self.replicas = replicas
        self._copies: Dict[str, List[bytes]] = {}

    def _put(self, path: str, blob: bytes) -> None:
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


class HdfsSegmentBackend(_ObjectPerSegment):
    """Segments as (small) replicated files on the simulated HDFS."""

    def __init__(self, fs):
        self._fs = fs

    def _put(self, path: str, blob: bytes) -> None:
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
    """Map files on spill directories, via the durable-I/O layer.

    Like Hadoop's ``file.out``, one file holds a map task's frames for
    every reducer, back to back: replica ``k`` of ``/shuffle/job/map-i``
    lands at ``<dir>/shuffle/job/map-i/seg-file.out.r<k>`` in the first
    spill directory with room.  Every write walks ``spill_dirs`` in
    order, so an ENOSPC on the primary degrades the replica to a
    secondary (``io.fallback_spills``) instead of failing the task.
    When no directory can take a replica, the remaining copies are
    *shed* (``io.replicas_shed``) as long as ``min_replicas`` already
    landed; below that the put raises
    :class:`~repro.errors.StorageFullError` and the job fails.

    In place of ``file.out.index``, a segment is the map file plus the
    offset and length its writer recorded in memory: no offset comes
    from stored bytes, so a rotten length field fails only its own
    frame's CRC.  A read slices one frame out of one replica; the map
    file is unlinked once its last segment is deleted.  Writes are
    atomic (temp + fsync + rename), so a crashed put never leaves a
    torn replica for a fetch to trip on, and deletes are idempotent.
    """

    #: A map file's name in its task's directory (the ``file.out``
    #: analogue; ``seg-`` lets fault globs address shuffle writes).
    MAP_FILE = "seg-file.out"

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
        #: segment path -> (map file, offset, length), as written.
        self._frames: Dict[str, Tuple[str, int, int]] = {}
        #: map file -> how many of its segments are not yet deleted.
        self._live: Dict[str, int] = {}
        #: map file -> the replica files that landed, in replica order.
        self._landed: Dict[str, List[str]] = {}

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

    def put_map(self, paths: List[str], blobs: List[bytes]) -> None:
        """Write one map task's segments as one map file per replica.

        The segments are indexed before any replica lands, so a delete
        of every path cleans up a put that raised part-way.
        """
        map_file = posixpath.join(posixpath.dirname(paths[0]), self.MAP_FILE)
        offset = 0
        for path, blob in zip(paths, blobs):
            self._frames[path] = (map_file, offset, len(blob))
            offset += len(blob)
        self._live[map_file] = len(paths)
        landed = self._landed[map_file] = []
        data = b"".join(blobs)
        for replica in range(self.replicas):
            for dir_index, root in enumerate(self.spill_dirs):
                target = self._replica_file(root, map_file, replica)
                try:
                    self.io.write_atomic(target, data)
                except StorageFullError:
                    continue
                if dir_index > 0:
                    self.io.stats.fallback_spills += 1
                landed.append(target)
                break
            else:
                if len(landed) >= self.min_replicas:
                    # Degraded mode: every directory is full but the
                    # minimum copy count already landed — shed the rest
                    # rather than failing the job.
                    self.io.stats.replicas_shed += self.replicas - replica
                    return
                raise StorageFullError(
                    f"no spill directory could take replica {replica} of "
                    f"{map_file} ({len(landed)} < min_replicas "
                    f"{self.min_replicas}); dirs: {self.spill_dirs}"
                )

    def _locate(self, path: str, replica_choice: int) -> Tuple[str, int, int]:
        """``(replica file, offset, length)`` of one segment's frame."""
        try:
            map_file, offset, length = self._frames[path]
        except KeyError:
            raise ShuffleError(f"no such segment: {path}") from None
        landed = self._landed[map_file]
        if not landed:
            raise ShuffleError(f"no such segment: {path}")
        return landed[replica_choice % len(landed)], offset, length

    def _read_file(self, target: str, path: str) -> bytes:
        data = self.io.read_bytes(target)
        if data is None:
            raise ShuffleError(f"no such segment: {path}")
        return data

    def read_map(self, paths: List[str], replica_choice: int) -> List[bytes]:
        """Each segment's frame from replica chain ``replica_choice``,
        reading every map file once."""
        files: Dict[str, bytes] = {}
        frames = []
        for path in paths:
            target, offset, length = self._locate(path, replica_choice)
            if target not in files:
                files[target] = self._read_file(target, path)
            frames.append(files[target][offset:offset + length])
        return frames

    def read(self, path: str, replica_choice: int) -> bytes:
        return self.read_map([path], replica_choice)[0]

    def corrupt(self, path: str, replica_index: int = 0) -> str:
        """Flip the first byte of this segment's frame in one replica."""
        target, offset, _ = self._locate(path, replica_index)
        rotten = bytearray(self._read_file(target, path))
        rotten[offset] ^= 0xFF
        self.io.write_atomic(target, bytes(rotten))
        return f"{os.path.basename(target)}@{offset}"

    def delete(self, path: str) -> None:
        entry = self._frames.pop(path, None)
        if entry is None:
            return
        map_file = entry[0]
        self._live[map_file] -= 1
        if self._live[map_file]:
            return
        del self._live[map_file], self._landed[map_file]
        for replica in range(self.replicas):
            for root in self.spill_dirs:
                self.io.unlink(self._replica_file(root, map_file, replica))

    def paths(self) -> List[str]:
        """Logical paths of the map files on disk (leak checks)."""
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

    def put_map(self, paths: List[str], blobs: List[bytes]) -> None:
        """Store one map task's segments (``paths[r]`` holds ``blobs[r]``)."""
        self.backend.put_map(paths, blobs)

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

    def snapshot(self, paths: List[str], attempts: int) -> Dict[str, List[bytes]]:
        """The replica chains fetches with this budget would read, for
        one map task's segments.

        Fetch attempt *k* reads replica chain ``k``, and a fetch stops
        at the first chain that verifies; so does the snapshot.  Every
        chain is judged by its frame CRC alone (:func:`verify_segment`,
        no decode), each read exactly once — attempt *k* reads the
        segments still unverified in one backend call, one read of the
        map file on disk — and a fetch over the shipped chains sees the
        same bytes, failovers and counters as a fetch over this store.
        """
        chains: Dict[str, List[bytes]] = {path: [] for path in paths}
        pending = list(paths)
        for attempt in range(max(1, attempts)):
            unverified = []
            for path, frame in zip(
                pending, self.backend.read_map(pending, attempt)
            ):
                chains[path].append(frame)
                try:
                    verify_segment(frame)
                except ShuffleError:
                    unverified.append(path)
            pending = unverified
        return chains

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
