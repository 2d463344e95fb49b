"""Round checkpoint/resume storage for the Gesall pipeline.

A 25-round production pipeline (Table 2) that dies in round 19 must
not redo rounds 1-18; our five-round reproduction gets the same
guarantee.  After each completed round the pipeline saves the round's
output files (plus round-specific extras such as the final variant
calls) and an updated manifest; ``resume=True`` restores the longest
completed *prefix* of rounds into the fresh run's HDFS namespace and
re-runs only what is missing.

Storage is a :class:`LocalDirectoryBackend`: files on the driver's
disk, routed through the :mod:`repro.io` durability contract — every
blob write is write-temp → fsync → atomic rename → directory fsync, so
a crash mid-save can truncate at most the round being saved, never an
already-completed one — and the completed ones survive a power cut,
not just a process kill.

The manifest records the run *fingerprint* (a digest of the input
reads and the pipeline configuration); resuming against a checkpoint
written by a different input or configuration raises
:class:`~repro.errors.CheckpointError` instead of silently mixing two
runs' data.  Every restored blob is CRC32-verified against the digest
recorded at save time.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError

#: Bumped whenever the manifest layout changes incompatibly.
MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"


class LocalDirectoryBackend:
    """Checkpoint blobs as flat files in one local directory.

    All byte traffic goes through a :class:`~repro.io.layer.LocalIO`
    (one is built when the caller passes none), which supplies the
    durability contract — atomic renames with file and directory
    fsyncs, durable appends with torn-tail healing, transient-EIO
    retry — for every layer stacked on this backend: checkpoints, the
    job WAL, and the server's queue journal.
    """

    def __init__(self, root: str, io: Optional[Any] = None):
        from repro.io.layer import LocalIO

        self.root = root
        self.io = io if io is not None else LocalIO()
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, data: bytes) -> None:
        """Atomic durable write: old bytes or new bytes, never a mix."""
        self.io.write_atomic(self._path(name), data)

    def read(self, name: str) -> Optional[bytes]:
        return self.io.read_bytes(self._path(name))

    def append(self, name: str, data: bytes) -> None:
        """Durable append to a blob (creates it when missing).

        Deliberately *not* atomic — the job WAL built on top frames
        every record with a CRC32 and tolerates a torn tail — but each
        append is fsynced, and a failed append truncates its torn tail
        before the retry.
        """
        self.io.append_durable(self._path(name), data)

    def delete(self, name: str) -> None:
        """Idempotent delete: a missing blob is already deleted."""
        self.io.unlink(self._path(name))

    def __repr__(self) -> str:
        return f"LocalDirectoryBackend({self.root!r})"


class CheckpointStore:
    """Saves completed rounds and restores them on resume."""

    def __init__(self, backend: Any):
        self.backend = backend
        self._manifest: Dict[str, Any] = self._fresh_manifest("")

    # -- constructors -------------------------------------------------------
    @classmethod
    def local(cls, root: str, io: Optional[Any] = None) -> "CheckpointStore":
        return cls(LocalDirectoryBackend(root, io=io))

    # -- lifecycle ----------------------------------------------------------
    @staticmethod
    def _fresh_manifest(fingerprint: str) -> Dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "order": [],
            "rounds": {},
        }

    def begin(self, fingerprint: str, resume: bool = False) -> List[str]:
        """Start (or resume) a run; returns completed round keys.

        A fresh start wipes the manifest.  A resume loads it, refusing
        a checkpoint whose fingerprint does not match this run's input
        and configuration — restoring another dataset's rounds would
        corrupt the output silently.
        """
        if not resume:
            self._manifest = self._fresh_manifest(fingerprint)
            self._write_manifest()
            return []
        raw = self.backend.read(_MANIFEST_NAME)
        if raw is None:
            self._manifest = self._fresh_manifest(fingerprint)
            self._write_manifest()
            return []
        try:
            manifest = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise CheckpointError(
                f"checkpoint manifest version {manifest.get('version')!r} "
                f"!= {MANIFEST_VERSION}"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise CheckpointError(
                "checkpoint belongs to a different run (input or pipeline "
                "configuration changed); refusing to resume from it"
            )
        self._manifest = manifest
        return list(manifest["order"])

    # -- save ---------------------------------------------------------------
    def save_round(
        self,
        key: str,
        files: List[Tuple[str, bytes, bool]],
        extras: Optional[Dict[str, Any]] = None,
        blobs: Optional[Dict[str, bytes]] = None,
    ) -> None:
        """Persist one completed round.

        ``files`` are ``(hdfs_path, data, logical_partition)`` triples
        to re-upload on restore; ``extras`` is JSON-able metadata (e.g.
        the round's output path list, serialized variants); ``blobs``
        are opaque byte payloads returned as-is on restore.  The
        manifest is rewritten last, so the round only becomes visible
        once all of its data is durable.
        """
        entries = []
        for index, (path, data, logical) in enumerate(files):
            blob_name = f"{key}-f{index:04d}.bin"
            self.backend.write(blob_name, data)
            entries.append({
                "path": path,
                "blob": blob_name,
                "logical": bool(logical),
                "crc": zlib.crc32(data),
            })
        blob_entries = {}
        for name, data in (blobs or {}).items():
            blob_name = f"{key}-b-{name}.bin"
            self.backend.write(blob_name, data)
            blob_entries[name] = {"blob": blob_name, "crc": zlib.crc32(data)}
        self._manifest["rounds"][key] = {
            "files": entries,
            "extras": extras or {},
            "blobs": blob_entries,
        }
        if key not in self._manifest["order"]:
            self._manifest["order"].append(key)
        self._write_manifest()

    # -- restore ------------------------------------------------------------
    def has_round(self, key: str) -> bool:
        return key in self._manifest["rounds"]

    def restore_round(
        self, key: str, hdfs: Any
    ) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
        """Re-upload one round's files into ``hdfs``; returns extras + blobs.

        Every blob is verified against the CRC32 recorded at save time;
        a rotten checkpoint raises rather than resuming from bad data.
        """
        entry = self._manifest["rounds"].get(key)
        if entry is None:
            raise CheckpointError(f"no checkpoint for round {key!r}")
        for item in entry["files"]:
            data = self._read_verified(item["blob"], item["crc"])
            hdfs.put(
                item["path"], data,
                logical_partition=item["logical"], overwrite=True,
            )
        blobs = {
            name: self._read_verified(item["blob"], item["crc"])
            for name, item in entry["blobs"].items()
        }
        return dict(entry["extras"]), blobs

    def _read_verified(self, blob_name: str, crc: int) -> bytes:
        data = self.backend.read(blob_name)
        if data is None:
            raise CheckpointError(f"checkpoint blob missing: {blob_name}")
        if zlib.crc32(data) != crc:
            raise CheckpointError(f"checkpoint blob corrupt: {blob_name}")
        return data

    def _write_manifest(self) -> None:
        payload = json.dumps(self._manifest, sort_keys=True, indent=1)
        self.backend.write(_MANIFEST_NAME, payload.encode())

    def __repr__(self) -> str:
        done = ",".join(self._manifest["order"]) or "none"
        return f"CheckpointStore({self.backend!r}, completed: {done})"
