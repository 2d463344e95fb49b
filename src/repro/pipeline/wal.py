"""CRC-framed append-only journaling: the crash-recovery byte plane.

Two layers live here:

* :class:`FrameLog` — a generic named journal on a checkpoint backend.
  Every record is pickled and framed as::

      [u32 payload length][u32 crc32(payload)][payload]

  and replay stops at the first short or checksum-failing frame, so a
  torn tail costs at most the record being written, never a completed
  one.  The first frame is a header carrying a *fingerprint* (plus any
  caller metadata); a log stamped by a different input, configuration
  or owner is ignored rather than replayed.  The job WAL and the job
  server's durable submission queue are both built on it.

* :class:`JobWal` — one run's per-round task-commit journals.  Round
  checkpoints (:mod:`repro.pipeline.checkpoint`) make a completed
  round durable; the WAL covers the round *in flight*: every promoted
  task commit is appended — fencing epoch plus the full pickled task
  outcome, the bytes of the files it wrote included — so a driver that
  dies mid-round re-runs only the tasks whose commits never reached
  the log, replaying the journaled ones through the same commit path.

Both lean on the backends' weakest useful guarantee: a durable
*append* (``write`` is atomic, ``append`` is not — the framing is what
makes the non-atomic half safe).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

#: Bumped whenever the frame payload layout changes incompatibly.
#: 2: ``SamRecord`` / ``Cigar`` inside journaled outcomes pickle as flat
#: primitives (a version-1 log would unpickle to half-built records).
#: 3: the journaled outcome class moved to ``repro.mapreduce.task``.
#: 4: a round-2/3/4 reduce outcome journals ``(path, count)`` pairs and
#: its BAM bytes as ``file_writes``; a version-3 one journaled ``(qname,
#: SamRecord)`` pairs, which replayed here would be read as paths.
#: 5: the journaled outcome lost its phase-boundary and block-decode slots.
#: 6: the journaled outcome lost its two map-side combine-count slots.
#: 7: a journaled map outcome's segments are ``GSEG2`` frames, whose CRC
#: covers the header; a version-6 log's ``GSEG1`` ones would not decode.
#: 8: the journaled outcome lost its resource-sample slot.
#: 9: a journaled round-3 map outcome's segments hold SAM lines, not records.
#: 10: so do a journaled round-2 map outcome's.
#: 11: the journaled outcome lost its hung-task count and progress-stamp slots.
#: 12: the journaled outcome lost the in-worker retry loop's tally slots;
#: a task's attempts are its committed epoch + 1.
WAL_VERSION = 12

_FRAME = struct.Struct(">II")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frames(data: bytes) -> List[bytes]:
    """Decode frames up to the first torn or corrupt one."""
    frames: List[bytes] = []
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        frames.append(payload)
        offset = end
    return frames


class FrameLog:
    """One named, fingerprint-stamped journal of pickled records.

    ``reset()`` truncates the log and stamps a fresh header frame
    (atomic write); ``append()`` journals one record (durable append);
    ``replay()`` returns every intact record, or ``[]`` when the log
    is missing, blank, torn before its header, or stamped by a
    different fingerprint — in every such case the safe answer is
    "nothing journaled".
    """

    def __init__(self, backend: Any, name: str, fingerprint: str,
                 meta: Optional[Dict[str, Any]] = None):
        self.backend = backend
        self.name = name
        self.fingerprint = fingerprint
        self.meta = dict(meta or {})

    def exists(self) -> bool:
        return self.backend.read(self.name) is not None

    def reset(self) -> None:
        """Truncate the log and stamp a fresh header frame."""
        header = {"version": WAL_VERSION, "fingerprint": self.fingerprint}
        header.update(self.meta)
        self.backend.write(
            self.name,
            _frame(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)),
        )

    def blank(self) -> None:
        """Truncate to zero bytes (a headerless log replays empty)."""
        self.backend.write(self.name, b"")

    def append(self, record: Any) -> None:
        """Journal one record (durable before the caller counts it)."""
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self.backend.append(self.name, _frame(payload))

    def rewrite(self, records: List[Any]) -> None:
        """Replace the whole log — header plus ``records`` — atomically.

        The compaction primitive: header and records are framed into
        one buffer and handed to the backend as a *single* atomic
        write (write-temp → fsync → rename → directory fsync on the
        durable backend), so a crash at any instant leaves either the
        complete old log or the complete new one.  The
        ``reset()``-then-``append()`` loop this replaced could lose
        previously durable records when killed mid-compaction.
        """
        header = {"version": WAL_VERSION, "fingerprint": self.fingerprint}
        header.update(self.meta)
        chunks = [
            _frame(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL))
        ]
        for record in records:
            chunks.append(
                _frame(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
            )
        self.backend.write(self.name, b"".join(chunks))

    def replay(self) -> List[Any]:
        """Every intact journaled record, in append order.

        Decoding stops at the first unpicklable record — everything
        before it was durably journaled and is returned.
        """
        data = self.backend.read(self.name)
        if not data:
            return []
        frames = _read_frames(data)
        if not frames:
            return []
        try:
            header = pickle.loads(frames[0])
        except Exception:
            return []
        if (
            not isinstance(header, dict)
            or header.get("version") != WAL_VERSION
            or header.get("fingerprint") != self.fingerprint
        ):
            return []
        records: List[Any] = []
        for raw in frames[1:]:
            try:
                records.append(pickle.loads(raw))
            except Exception:
                break
        return records

    def __repr__(self) -> str:
        return f"FrameLog({self.name!r} on {self.backend!r})"


class JobWal:
    """One run's per-round commit journals on a checkpoint backend."""

    def __init__(self, backend: Any, fingerprint: str):
        self.backend = backend
        self.fingerprint = fingerprint

    def _log(self, round_key: str) -> FrameLog:
        return FrameLog(
            self.backend, f"wal-{round_key}.log", self.fingerprint,
            meta={"round": round_key},
        )

    # -- write side ----------------------------------------------------------
    def begin_round(self, round_key: str) -> None:
        """Truncate the round's log and stamp a fresh header frame.

        Called when the round starts executing — on resume the caller
        recovers the old log *first*, then replayed commits re-append
        themselves through the normal commit path, leaving a complete
        journal for the round's second interruption, if any.
        """
        self._log(round_key).reset()

    def reset_round(self, round_key: str) -> None:
        """Blank a round's log (fresh, non-resume runs)."""
        self._log(round_key).blank()

    def append_commit(
        self, round_key: str, task_id: str, epoch: int, outcome: Any
    ) -> None:
        """Journal one promoted task commit (durable before it counts)."""
        self._log(round_key).append(
            {"task": task_id, "epoch": epoch, "outcome": outcome}
        )

    # -- recovery ------------------------------------------------------------
    def recover_round(self, round_key: str) -> Dict[str, Tuple[int, Any]]:
        """Committed tasks of an interrupted round: id -> (epoch, outcome).

        Returns ``{}`` when the log is missing, blank, torn before its
        header, or stamped by a different run's fingerprint — in every
        such case the safe answer is "nothing committed, re-run it all".
        """
        recovered: Dict[str, Tuple[int, Any]] = {}
        for entry in self._log(round_key).replay():
            recovered[entry["task"]] = (entry["epoch"], entry["outcome"])
        return recovered

    def __repr__(self) -> str:
        return f"JobWal({self.backend!r})"
