"""NDJSON-over-unix-socket daemon around :class:`JobServer`.

One JSON object per line in each direction.  Request ``op`` values:

========== ===========================================================
``ping``     liveness probe → ``{"ok": true}``
``submit``   ``{tenant, payload, cost?, demand?}`` → ``{job_id}``
``jobs``     full queue snapshot (jobs, tenants, counts, slots)
``result``   ``{job_id}`` → ``{result}`` (done jobs only)
``cancel``   ``{job_id}`` → ``{state}``
``stats``    metrics counters + per-tenant summary
``start``    release a ``--hold`` server's dispatcher (after the reply)
``shutdown`` clean stop: drain running work, write the trace, exit
========== ===========================================================

Errors cross as ``{"error": {"type", "message", ...}}`` (see
:mod:`repro.server.protocol`); protocol failures never kill the
daemon.  A chaos :class:`~repro.chaos.plan.KillServer` event, by
contrast, kills the *process* crash-style (``os._exit``) the moment
the fatal start record hits the journal — no socket teardown, no
trace flush — which is exactly the failure the durable queue's
recovery path is built for.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from typing import Any, Dict, Optional

from repro.errors import ReproError, ServerError
from repro.obs.analysis import tenant_summary
from repro.server.protocol import error_to_wire
from repro.server.service import JobServer

#: Exit code of a chaos-killed server process (CI asserts on it).
KILLED_EXIT_CODE = 7


def _check_af_unix() -> None:
    if not hasattr(socket, "AF_UNIX"):
        raise ServerError(
            "unix domain sockets are unavailable on this platform"
        )


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon = self.server.daemon  # type: ignore[attr-defined]
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            op = None
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                response: Dict[str, Any] = {
                    "error": {"type": "ServerError",
                              "message": f"bad request line: {exc}"}
                }
            else:
                op = request.get("op")
                response = daemon.handle(request)
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if op == "shutdown":
                daemon.request_shutdown()
                return
            if op == "start":
                # Released only once the reply is on the wire: a
                # KillServer that fires on the first dispatch cannot
                # take the reply down with the process.
                daemon.server.start_dispatch()


class _SocketServer(socketserver.ThreadingMixIn,
                    socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class JobServerDaemon:
    """Owns the socket loop; delegates every op to a JobServer."""

    def __init__(self, server: JobServer, socket_path: str):
        _check_af_unix()
        self.server = server
        self.socket_path = socket_path
        self._sock: Optional[_SocketServer] = None
        self._shutdown_requested = threading.Event()
        server.on_killed = self._die

    def _die(self, exc: Exception) -> None:
        # Crash-style exit: flush nothing, close nothing — recovery
        # must work from the journal alone.
        os._exit(KILLED_EXIT_CODE)

    # -- op dispatch ---------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True}
            if op == "submit":
                job = self.server.submit(
                    str(request.get("tenant", "")),
                    request.get("payload"),
                    cost=float(request.get("cost", 1.0)),
                    demand=request.get("demand", 1),
                    job_id=request.get("job_id"),
                )
                return {"job_id": job.job_id, "state": job.state}
            if op == "jobs":
                return self.server.jobs_snapshot()
            if op == "result":
                return {
                    "result": self.server.result(str(request.get("job_id")))
                }
            if op == "cancel":
                return {
                    "state": self.server.cancel(str(request.get("job_id")))
                }
            if op == "stats":
                counters = self.server.counters()
                return {
                    "counters": counters,
                    "tenants": tenant_summary(counters),
                }
            if op == "start":
                return {"ok": True}  # the handler releases after replying
            if op == "shutdown":
                return {"ok": True, "shutdown": True}
            return {"error": {"type": "ServerError",
                              "message": f"unknown op {op!r}"}}
        except ReproError as exc:
            return {"error": error_to_wire(exc)}
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            return {"error": {"type": "ServerError",
                              "message": f"{type(exc).__name__}: {exc}"}}

    # -- socket loop ---------------------------------------------------------
    def request_shutdown(self) -> None:
        self._shutdown_requested.set()
        sock = self._sock
        if sock is not None:
            # shutdown() must come from another thread than the one
            # inside serve_forever's handler.
            threading.Thread(target=sock.shutdown, daemon=True).start()

    def serve_forever(self) -> None:
        """Bind the socket and serve until a shutdown op arrives.

        A stale socket file from a crashed predecessor is unlinked —
        the durable queue, not the socket, is the source of truth.
        """
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._sock = _SocketServer(self.socket_path, _Handler)
        self._sock.daemon = self  # type: ignore[attr-defined]
        try:
            self._sock.serve_forever(poll_interval=0.05)
        finally:
            self._sock.server_close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            # Drain running jobs so a clean shutdown never abandons
            # work it already dispatched.
            if self.server.killed is None:
                self.server.close()
