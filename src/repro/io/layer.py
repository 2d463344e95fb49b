"""The durable-I/O layer: one contract for every on-disk artifact.

Every byte the system persists — WAL frames, checkpoint blobs, the
server's queue journal, disk shuffle segments, map-side spill runs —
flows through a :class:`LocalIO` instance, which enforces one explicit
durability contract instead of the ad-hoc ``open(...).write`` calls it
replaced:

* **atomic write** (:meth:`LocalIO.write_atomic`) — write a temp file,
  fsync it, ``os.replace`` onto the destination, fsync the directory.
  A crash at any point leaves either the old bytes or the new bytes,
  never a mix, and the rename survives a power cut because the
  directory entry itself was synced.
* **durable append** (:meth:`LocalIO.append_durable`) — append, flush,
  fsync.  Appends are not atomic; the CRC framing above (FrameLog)
  tolerates a torn tail, and a *failed* append heals itself by
  truncating back to the pre-append length before the retry, so
  retried appends never stack torn bytes in front of good ones.
* **idempotent unlink** (:meth:`LocalIO.unlink`) — deleting a missing
  file succeeds, so a crash between a delete and the journal update
  that records it cannot wedge recovery.

Transient errors (EIO, EAGAIN, EINTR, short reads) are retried up to
``IoPolicy.retries`` times with charged, deterministic backoff.
ENOSPC is *not* transient — a full disk stays full — and surfaces as a
typed :class:`~repro.errors.StorageFullError` for the spill router to
absorb.  Every operation, byte, fsync, retry and fault is counted in
an :class:`IoStats` bag, published as ``io.*`` metrics by the engine.

:class:`FaultIO` (:mod:`repro.io.faults`) subclasses the protected
``_os_*`` primitives to inject faults below the retry loop, so the
recovery machinery under test is exactly the production code path.
"""

from __future__ import annotations

import errno
import os
from typing import Dict, Optional

from repro.errors import DurableIoError, StorageFullError

from repro.io.policy import DEFAULT_IO_POLICY, IoPolicy, charged_backoff

#: errno values the retry loop treats as transient.
TRANSIENT_ERRNOS = (errno.EIO, errno.EAGAIN, errno.EINTR)

#: Suffix of the temp file an atomic write stages into.
TMP_SUFFIX = ".inflight"


class IoStats:
    """Mutable counter bag for one I/O layer instance."""

    FIELDS = (
        "reads", "writes", "appends", "unlinks",
        "bytes_read", "bytes_written",
        "fsyncs", "dir_fsyncs",
        "retries", "transient_errors", "short_reads",
        "torn_writes", "enospc", "eio",
        "slow_seconds", "backoff_charged_seconds", "timeouts",
        "fallback_spills", "replicas_shed",
    )

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0.0 if "seconds" in name else 0)

    def as_dict(self) -> Dict[str, float]:
        """Counter values keyed by their ``io.*`` metric names."""
        out: Dict[str, float] = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            out[f"io.{name}"] = (
                round(value, 6) if isinstance(value, float) else value
            )
        return out

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.as_dict().items() if v}
        return f"IoStats({busy})"


def _is_transient(exc: OSError) -> bool:
    return exc.errno in TRANSIENT_ERRNOS


class LocalIO:
    """Durable local-filesystem I/O with transient-error retry.

    The public methods (``read_bytes`` / ``write_atomic`` /
    ``append_durable`` / ``unlink``) wrap the protected ``_os_*``
    primitives in the charge/retry loop; :class:`~repro.io.faults.FaultIO`
    overrides only the primitives, so injected faults exercise the
    production retry, healing and fallback paths unchanged.
    """

    def __init__(self, policy: Optional[IoPolicy] = None,
                 stats: Optional[IoStats] = None):
        self.policy = policy or DEFAULT_IO_POLICY
        self.stats = stats or IoStats()

    # -- public contract ----------------------------------------------------
    def read_bytes(self, path: str) -> Optional[bytes]:
        """Read a whole file; ``None`` when it does not exist.

        A short read (fewer bytes than the file holds) is treated as a
        transient error and retried — the disk served a partial page,
        not a missing file.
        """
        def attempt() -> Optional[bytes]:
            data = self._os_read(path)
            if data is not None:
                try:
                    expected = os.path.getsize(path)
                except OSError:
                    expected = len(data)
                if len(data) != expected:
                    self.stats.short_reads += 1
                    raise OSError(
                        errno.EIO,
                        f"short read: {len(data)}/{expected} bytes",
                    )
            return data

        data = self._run_op("read", path, attempt)
        self.stats.reads += 1
        if data is not None:
            self.stats.bytes_read += len(data)
        return data

    def write_atomic(self, path: str, data: bytes) -> None:
        """Write-temp → fsync → atomic rename → directory fsync.

        Overwrites an existing file (and any temp leftover from a
        crashed earlier attempt).  On any failure the temp file is
        best-effort removed; the destination is never touched except by
        the rename, so readers observe old-or-new, never torn.
        """
        tmp = path + TMP_SUFFIX
        parent = os.path.dirname(path)

        def attempt() -> None:
            if parent:
                os.makedirs(parent, exist_ok=True)
            try:
                self._os_write(tmp, path, data)
                os.replace(tmp, path)
                self._os_fsync_dir(parent)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

        self._run_op("write", path, attempt)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def append_durable(self, path: str, data: bytes) -> None:
        """Append + flush + fsync, healing a torn tail before a retry.

        Not atomic — the caller's framing tolerates a torn tail after a
        crash — but a *failed* append truncates the file back to its
        pre-append length, so the retry (and every later append) lands
        after intact bytes only.
        """
        def attempt() -> None:
            try:
                pre = os.path.getsize(path)
            except OSError:
                pre = 0
            try:
                self._os_append(path, data)
            except BaseException:
                try:
                    with open(path, "r+b") as handle:
                        handle.truncate(pre)
                except OSError:
                    pass
                raise

        self._run_op("write", path, attempt)
        self.stats.appends += 1
        self.stats.bytes_written += len(data)

    def unlink(self, path: str) -> None:
        """Idempotent delete: a missing file is already deleted."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        self.stats.unlinks += 1

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    # -- charge/retry loop --------------------------------------------------
    def _run_op(self, mode: str, path: str, attempt_fn):
        """Run one operation under the charge, timeout and retry rules.

        A :class:`~repro.errors.IoTimeoutError` from the charge hook is
        terminal (retrying a deterministically slow disk would charge
        the same latency again); ENOSPC is terminal but typed for the
        spill router; everything transient is retried with charged
        backoff.
        """
        attempt = 0
        while True:
            try:
                self._charge(mode, path)
                return attempt_fn()
            except StorageFullError:
                raise
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    self.stats.enospc += 1
                    raise StorageFullError(
                        f"no space left writing {path}: {exc}"
                    ) from exc
                if not _is_transient(exc) or attempt >= self.policy.retries:
                    raise DurableIoError(
                        f"io {mode} failed on {path} after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                attempt += 1
                self.stats.retries += 1
                self.stats.transient_errors += 1
                self.stats.backoff_charged_seconds += charged_backoff(attempt)

    def _charge(self, mode: str, path: str) -> None:
        """Charge deterministic latency to one op (FaultIO hook)."""

    # -- primitives (FaultIO overrides these) -------------------------------
    def _os_read(self, path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _os_write(self, tmp: str, path: str, data: bytes) -> None:
        """Write ``data`` into ``tmp`` and fsync it.

        ``path`` is the logical destination — fault matching keys on it,
        never on the temp name.
        """
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.policy.fsync:
                os.fsync(handle.fileno())
                self.stats.fsyncs += 1

    def _os_append(self, path: str, data: bytes) -> None:
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            if self.policy.fsync:
                os.fsync(handle.fileno())
                self.stats.fsyncs += 1

    def _os_fsync_dir(self, parent: str) -> None:
        """Persist the directory entry after a rename (commit point)."""
        if not self.policy.fsync:
            return
        try:
            fd = os.open(parent or ".", os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename still landed
        try:
            os.fsync(fd)
            self.stats.dir_fsyncs += 1
        finally:
            os.close(fd)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(policy={self.policy!r})"

