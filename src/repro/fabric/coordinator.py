"""The fabric coordinator (``repro serve``) and its engine adapter.

The :class:`Coordinator` owns four small moving parts:

* an **accept loop** — the first frame on a fresh connection decides
  whether the peer is a worker (``register``) or a client (``submit`` /
  ``status``), so one listening port serves both;
* one **connection thread per worker** — drains heartbeats and lease
  results into the :class:`~repro.fabric.failure.FailureDetector` and
  :class:`~repro.fabric.leases.LeaseBoard` under the coordinator lock;
* a **monitor loop** — declares silent workers failed and requeues
  their leases (a socket EOF does the same immediately);
* a **study loop** — executes submitted
  :class:`~repro.experiments.spec.StudySpec` jobs *serially* through
  the exact :func:`repro.api.run_study` path the CLI uses, with a
  :class:`FabricEngine` plugged into the experiment engine's execution
  seam.

Serial study execution is a correctness choice, not a limitation: the
shared cache and manifests see the same single-writer access pattern a
local run produces, which the byte-identity contract depends on.
Parallelism lives *inside* each batch — unique cache-miss configs fan
out across every idle worker.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..experiments.config import config_to_jsonable
from ..experiments.parallel.cache import metrics_from_jsonable
from ..experiments.parallel.engine import ExperimentEngine
from ..experiments.spec import spec_digest, spec_from_jsonable
from .failure import FailureDetector
from .leases import LeaseBoard
from .protocol import PROTOCOL_VERSION, ProtocolError, recv_frame, send_frame

__all__ = ["Coordinator", "FabricEngine", "MAX_ATTEMPTS"]

log = logging.getLogger(__name__)

#: executions granted per key before its batch fails instead of retrying
MAX_ATTEMPTS = 3

#: done-payload marker for a key that exhausted its retry budget
_ERROR_KEY = "__fabric_error__"


class _WorkerConn:
    """Coordinator-side handle of one connected worker life."""

    def __init__(self, worker_id: str, incarnation: int, sock: socket.socket) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.sock = sock
        self.send_lock = threading.Lock()
        self.busy = False

    def send(self, message: Dict[str, Any]) -> None:
        with self.send_lock:
            send_frame(self.sock, message)


class Coordinator:
    """Accepts studies and workers on one socket; schedules leases.

    Parameters
    ----------
    host, port:
        Bind address (``port=0`` picks a free port — read
        :attr:`address` after :meth:`start`).
    heartbeat_timeout:
        Silence after which a worker is declared failed and its leases
        requeue.
    clock:
        Monotonic time source for the failure detector (injectable so
        lease-recovery rules are testable without sleeping).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = 10.0,
        clock=time.monotonic,
    ) -> None:
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.board = LeaseBoard()
        self.detector = FailureDetector(heartbeat_timeout, clock=clock)
        self._workers: Dict[str, _WorkerConn] = {}
        self._attempts: Dict[str, int] = {}
        self._jobs: "queue.Queue[Optional[Tuple[int, Dict[str, Any], socket.socket, threading.Lock]]]" = (
            queue.Queue()
        )
        self._job_ids = iter(range(1, 1 << 62))
        self.jobs_done = 0
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        assert self._listener is not None, "coordinator not started"
        return self._listener.getsockname()[:2]

    def start(self) -> "Coordinator":
        """Bind, then spawn the accept, monitor, and study threads."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self._host, self._port))
        self._listener.listen(64)
        for name, target in (
            ("fabric-accept", self._accept_loop),
            ("fabric-monitor", self._monitor_loop),
            ("fabric-study", self._study_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        log.info("coordinator listening on %s:%d", *self.address)
        return self

    def stop(self) -> None:
        """Shut down: stop accepting, dismiss workers, wake waiters."""
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self._jobs.put(None)
        with self._cond:
            conns = list(self._workers.values())
            self._workers.clear()
            self._cond.notify_all()
        for conn in conns:
            try:
                conn.send({"type": "shutdown"})
            except (OSError, ProtocolError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accept / demux
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Route one fresh connection by its first frame."""
        try:
            first = recv_frame(sock)
        except ProtocolError as exc:
            log.warning("dropping undecipherable connection: %s", exc)
            sock.close()
            return
        if first is None:
            sock.close()
            return
        kind = first.get("type")
        if kind == "register":
            self._serve_worker(sock, first)
        elif kind == "submit":
            self._accept_job(sock, first)
        elif kind == "status":
            try:
                send_frame(sock, self._status())
            except OSError:
                pass
            sock.close()
        else:
            try:
                send_frame(
                    sock,
                    {"type": "error", "job_id": None,
                     "message": f"unexpected first frame {kind!r}"},
                )
            except OSError:
                pass
            sock.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _serve_worker(self, sock: socket.socket, hello: Dict[str, Any]) -> None:
        worker_id = str(hello.get("worker_id"))
        incarnation = int(hello.get("incarnation", 0))
        version = hello.get("v")
        if version != PROTOCOL_VERSION:
            try:
                send_frame(sock, {"type": "rejected",
                                  "message": f"protocol v{version} != v{PROTOCOL_VERSION}"})
            except OSError:
                pass
            sock.close()
            return
        conn = _WorkerConn(worker_id, incarnation, sock)
        with self._cond:
            if not self.detector.register(worker_id, incarnation):
                stale = True
            else:
                stale = False
                old = self._workers.pop(worker_id, None)
                if old is not None:
                    # a superseded life: forfeit its leases, drop its socket
                    for key in self.board.fail_worker(worker_id):
                        log.info("requeued %s from superseded %s", key[:12], worker_id)
                    try:
                        old.sock.close()
                    except OSError:
                        pass
                self._workers[worker_id] = conn
        if stale:
            try:
                send_frame(sock, {"type": "rejected",
                                  "message": f"stale incarnation {incarnation}"})
            except OSError:
                pass
            sock.close()
            return
        try:
            conn.send({"type": "registered", "worker_id": worker_id})
        except OSError:
            self._worker_gone(conn)
            return
        log.info("worker %s (incarnation %d) registered", worker_id, incarnation)
        with self._cond:
            self._dispatch_locked()
        self._worker_recv_loop(conn)

    def _worker_recv_loop(self, conn: _WorkerConn) -> None:
        while True:
            try:
                msg = recv_frame(conn.sock)
            except (ProtocolError, OSError) as exc:
                log.warning("worker %s connection error: %s", conn.worker_id, exc)
                msg = None
            if msg is None:
                self._worker_gone(conn)
                return
            kind = msg.get("type")
            if kind == "heartbeat":
                with self._cond:
                    self.detector.beat(
                        str(msg.get("worker_id")), int(msg.get("incarnation", -1))
                    )
            elif kind == "lease_result":
                self._on_lease_result(conn, msg)
            elif kind == "lease_error":
                self._on_lease_error(conn, msg)
            else:
                log.warning("worker %s sent unexpected %r", conn.worker_id, kind)

    def _on_lease_result(self, conn: _WorkerConn, msg: Dict[str, Any]) -> None:
        with self._cond:
            accepted = self.board.complete(
                int(msg["lease_id"]),
                str(msg["worker_id"]),
                int(msg["incarnation"]),
                msg["metrics"],
            )
            conn.busy = False
            if accepted:
                log.info("lease %s completed by %s",
                         msg.get("lease_id"), conn.worker_id)
                self._cond.notify_all()
            else:
                log.info("dropped duplicate/stale result for lease %s",
                         msg.get("lease_id"))
            self._dispatch_locked()

    def _on_lease_error(self, conn: _WorkerConn, msg: Dict[str, Any]) -> None:
        key = str(msg.get("key"))
        with self._cond:
            conn.busy = False
            attempts = self._attempts.get(key, 0)
            if attempts >= MAX_ATTEMPTS:
                if self.board.abort(
                    int(msg["lease_id"]), {_ERROR_KEY: str(msg.get("message"))}
                ):
                    log.error("key %s failed %d times; giving up: %s",
                              key[:12], attempts, msg.get("message"))
                self._cond.notify_all()
            else:
                self.board.fail_lease(int(msg["lease_id"]))
                log.warning("key %s errored on %s (attempt %d): %s",
                            key[:12], conn.worker_id, attempts, msg.get("message"))
            self._dispatch_locked()

    def _worker_gone(self, conn: _WorkerConn) -> None:
        """Handle a dropped worker socket (crash, kill, network loss)."""
        with self._cond:
            current = self._workers.get(conn.worker_id)
            if current is not conn:
                return  # already superseded by a newer life
            del self._workers[conn.worker_id]
            self.detector.deregister(conn.worker_id)
            for key in self.board.fail_worker(conn.worker_id):
                log.warning("worker %s lost; requeued %s", conn.worker_id, key[:12])
            self._dispatch_locked()
            self._cond.notify_all()
        try:
            conn.sock.close()
        except OSError:
            pass

    def check_silent(self) -> List[str]:
        """Declare heartbeat-silent workers failed; the ids declared.

        The monitor thread calls this periodically; tests with a fake
        clock call it directly.
        """
        declared = []
        with self._cond:
            for worker_id in self.detector.silent():
                conn = self._workers.pop(worker_id, None)
                self.detector.deregister(worker_id)
                for key in self.board.fail_worker(worker_id):
                    log.warning("worker %s silent; requeued %s", worker_id, key[:12])
                declared.append(worker_id)
                if conn is not None:
                    try:
                        conn.sock.close()
                    except OSError:
                        pass
            if declared:
                self._dispatch_locked()
                self._cond.notify_all()
        return declared

    def _monitor_loop(self) -> None:
        interval = max(0.05, min(0.5, self.detector.timeout / 4.0))
        while not self._stopped.wait(interval):
            self.check_silent()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Pair pending keys with idle workers (caller holds the lock).

        Frames are small and sockets local, so sending under the lock is
        a simplicity/throughput trade we accept; a send failure is the
        same as a lost worker.
        """
        while self.board.has_pending():
            idle = next(
                (c for c in self._workers.values() if not c.busy), None
            )
            if idle is None:
                return
            lease = self.board.next_for(idle.worker_id, idle.incarnation)
            assert lease is not None
            self._attempts[lease.key] = self._attempts.get(lease.key, 0) + 1
            idle.busy = True
            log.info("granted lease %d (key %s) to %s",
                     lease.lease_id, lease.key[:12], idle.worker_id)
            try:
                idle.send(
                    {
                        "type": "lease",
                        "lease_id": lease.lease_id,
                        "key": lease.key,
                        "config": lease.config,
                    }
                )
            except (OSError, ProtocolError):
                # same as a lost worker: requeue and forget it
                del self._workers[idle.worker_id]
                self.detector.deregister(idle.worker_id)
                self.board.fail_worker(idle.worker_id)

    # ------------------------------------------------------------------
    # batch execution (called by FabricEngine on the study thread)
    # ------------------------------------------------------------------
    def execute(self, keys: List[str], configs: List[Dict[str, Any]]) -> List[Any]:
        """Run unique cache-miss configs on the fabric; metrics payloads.

        Blocks until every key has an accepted result (workers may come,
        go, and crash in the meantime — the board and detector keep the
        batch converging).  Raises ``RuntimeError`` when the coordinator
        stops mid-batch or a key exhausts its retry budget.
        """
        with self._cond:
            for key, config in zip(keys, configs):
                self._attempts.setdefault(key, 0)
                self.board.submit(key, config)
            self._dispatch_locked()
            while not all(self.board.is_done(k) for k in keys):
                if self._stopped.is_set():
                    raise RuntimeError("coordinator stopped mid-batch")
                self._cond.wait(timeout=0.25)
            payloads = [self.board.take_result(k) for k in keys]
            for key in keys:
                self._attempts.pop(key, None)
        for key, payload in zip(keys, payloads):
            if isinstance(payload, dict) and _ERROR_KEY in payload:
                raise RuntimeError(
                    f"config {key[:12]} failed on every attempt: {payload[_ERROR_KEY]}"
                )
        return payloads

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _accept_job(self, sock: socket.socket, msg: Dict[str, Any]) -> None:
        job_id = next(self._job_ids)
        version = msg.get("v")
        if version != PROTOCOL_VERSION:
            try:
                send_frame(sock, {"type": "error", "job_id": job_id,
                                  "message": f"protocol v{version} != v{PROTOCOL_VERSION}"})
            except OSError:
                pass
            sock.close()
            return
        try:
            send_frame(sock, {"type": "accepted", "job_id": job_id})
        except OSError:
            sock.close()
            return
        self._jobs.put((job_id, msg.get("spec"), sock, threading.Lock()))

    def _study_loop(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None or self._stopped.is_set():
                return
            job_id, payload, sock, send_lock = item
            try:
                reply = self._run_job(job_id, payload)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                log.exception("job %d failed", job_id)
                reply = {"type": "error", "job_id": job_id,
                         "message": f"{type(exc).__name__}: {exc}"}
            else:
                self.jobs_done += 1
            try:
                with send_lock:
                    send_frame(sock, reply)
            except (OSError, ProtocolError):
                log.warning("client of job %d went away before the result", job_id)
            finally:
                sock.close()

    def _run_job(self, job_id: int, payload: Any) -> Dict[str, Any]:
        """Execute one submitted study through the standard API path."""
        from ..api import cache_for_spec, run_study

        spec = spec_from_jsonable(payload)
        log.info("job %d: %s study on profile %s", job_id, spec.kind, spec.profile)
        engine = FabricEngine(self, cache=cache_for_spec(spec), jobs=spec.jobs)
        try:
            result = run_study(spec, engine=engine)
        finally:
            engine.close()
        return {
            "type": "result",
            "job_id": job_id,
            "kind": result.kind,
            "report": result.report,
            "digest": spec_digest(spec),
            "manifest_path": (
                None if result.manifest_path is None else str(result.manifest_path)
            ),
        }

    # ------------------------------------------------------------------
    def _status(self) -> Dict[str, Any]:
        with self._cond:
            workers = [
                {
                    "worker_id": c.worker_id,
                    "incarnation": c.incarnation,
                    "busy": c.busy,
                }
                for c in sorted(self._workers.values(), key=lambda c: c.worker_id)
            ]
            return {
                "type": "status_ok",
                "workers": workers,
                "pending": self.board.pending_count,
                "active": self.board.active_count,
                "jobs_done": self.jobs_done,
                "completed": self.board.completed,
                "duplicates": self.board.duplicates,
                "requeues": self.board.requeues,
            }


class FabricEngine(ExperimentEngine):
    """An experiment engine whose execution vehicle is the fabric.

    Overrides only the
    :meth:`~repro.experiments.parallel.engine.ExperimentEngine._execute_batch`
    seam — dedup, cache reads, cache writes, and result ordering are
    inherited unchanged, which is the structural half of the
    byte-identity contract (the other half is determinism of the runs
    themselves).  Cache writes therefore happen exactly once,
    coordinator-side, per unique run.  The lease keys are the engine's
    batch identities, so two misses that share a cache key under
    different passive plans get a lease each instead of colliding on
    the board.
    """

    def __init__(self, coordinator: Coordinator, cache=None, jobs=None) -> None:
        # `jobs` is advisory here (telemetry/provenance): the real
        # concurrency is however many workers are connected
        super().__init__(jobs=jobs, cache=cache)
        self.coordinator = coordinator

    def _execute_batch(self, miss_keys, miss_configs, tel):
        t0 = time.monotonic()
        payloads = self.coordinator.execute(
            miss_keys, [config_to_jsonable(c) for c in miss_configs]
        )
        busy = time.monotonic() - t0
        computed = [metrics_from_jsonable(p) for p in payloads]
        if tel.enabled:
            for key, c in zip(miss_keys, miss_configs):
                tel.event("engine.run", key=key[:12], rms=c.rms, seed=c.seed,
                          seconds=None, worker_pid=None)
        return computed, busy

    def _executor(self):  # pragma: no cover - guard against misuse
        raise RuntimeError("FabricEngine never spawns local pools")
