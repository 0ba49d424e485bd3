"""The flight recorder: bounded forensic rings + post-mortem bundles.

A :class:`FlightRecorder` keeps small rolling windows ("rings") of the
most recent kernel dispatches, ledger charges, tuner moves, fault
events, causal-tracing spans, and free-form notes.  Recording is cheap (a deque append per
observation) and bounded (each ring holds the latest ``capacity``
entries), so it can stay on for whole studies.  Nothing is written to
disk until :meth:`FlightRecorder.dump` is called — which the runner,
tuner, and CLI do when a run crashes, is cancelled, or trips an
invariant — producing a ``bundle-*.json`` post-mortem that makes a
failure inside a worker process diagnosable from artifacts alone.

Ambient enablement mirrors the telemetry session: library code calls
:func:`current` and gets either the process's recorder or ``None``.
Enablement deliberately flows through the environment
(``REPRO_FLIGHT_RECORDER`` / ``REPRO_FLIGHT_DIR``): pool workers
inherit it, auto-enable on first use (the env check is memoized per
PID, so forked workers re-consult it), and write PID-stamped bundles of
their own.

The recorder must never change results: it only observes (the
determinism test suite asserts byte-identical metrics with recording on
and off).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BUNDLE_SCHEMA",
    "DEFAULT_CAPACITY",
    "DEFAULT_DIR",
    "ENV_DIR",
    "ENV_ENABLE",
    "FlightRecorder",
    "current",
    "disable",
    "enable",
]

#: environment variable that switches ambient recording on ("" / "0" = off)
ENV_ENABLE = "REPRO_FLIGHT_RECORDER"
#: environment variable relocating the bundle directory
ENV_DIR = "REPRO_FLIGHT_DIR"
#: default bundle directory (relative to the working directory)
DEFAULT_DIR = "flight-recorder"
#: entries kept per ring
DEFAULT_CAPACITY = 256
#: bundle payload schema version
BUNDLE_SCHEMA = 1


def _fn_label(fn: Any) -> str:
    """Human-readable label for a scheduled callable.

    Resolved lazily (at snapshot/dump time, not on the hot path): the
    qualified name plus, for bound methods, the owning entity's ``name``
    — which is what turns a ring of opaque function pointers into a
    readable event timeline (``Resource._finish (res3)``).
    """
    label = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None) or repr(fn)
    owner = getattr(fn, "__self__", None)
    owner_name = getattr(owner, "name", None)
    if owner_name is not None:
        label = f"{label} ({owner_name})"
    return label


class FlightRecorder:
    """Rolling forensic windows with on-demand post-mortem dumps.

    Parameters
    ----------
    directory:
        Where bundles are written (created on first dump).  ``None``
        falls back to ``$REPRO_FLIGHT_DIR`` or :data:`DEFAULT_DIR`.
    capacity:
        Entries retained per ring (the *latest* ``capacity`` win).
    """

    def __init__(self, directory: "str | Path | None" = None, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        if directory is None:
            from ..envknobs import get_str

            directory = get_str(ENV_DIR, default=DEFAULT_DIR)
        self.directory = Path(directory)
        self.capacity = capacity
        # kernel entries hold raw (time, fn) pairs; labels resolve at
        # snapshot time so the record path stays a bare deque append.
        self._kernel: deque = deque(maxlen=capacity)
        self._ledger: deque = deque(maxlen=capacity)
        self._tuner: deque = deque(maxlen=capacity)
        self._faults: deque = deque(maxlen=capacity)
        self._notes: deque = deque(maxlen=capacity)
        self._trace: deque = deque(maxlen=capacity)
        #: bundles written by this recorder, in write order
        self.bundles: List[Path] = []
        self._bundle_seq = 0

    # -- recording (hot paths: keep these to one append) ----------------
    def kernel_event(self, t: float, fn: Any, args: Tuple) -> None:
        """Observe one kernel dispatch (the ``Simulator.trace`` shape)."""
        self._kernel.append((t, fn))

    def ledger_charge(self, category: str, amount: float, source: Optional[Tuple] = None) -> None:
        """Observe one accepted ledger charge."""
        self._ledger.append(
            {
                "category": category,
                "amount": amount,
                "source": list(source) if source is not None else None,
            }
        )

    def tuner_move(self, kind: str, **fields: Any) -> None:
        """Observe one annealing step or tuned-point result."""
        entry: Dict[str, Any] = {"move": kind}
        entry.update(fields)
        self._tuner.append(entry)

    def fault_event(self, kind: str, **fields: Any) -> None:
        """Observe one injected fault firing."""
        entry: Dict[str, Any] = {"kind": kind}
        entry.update(fields)
        self._faults.append(entry)

    def note(self, message: str, **fields: Any) -> None:
        """Record a free-form breadcrumb (run started, config shape, …)."""
        entry: Dict[str, Any] = {"note": message}
        entry.update(fields)
        self._notes.append(entry)

    def trace_span(self, job_id: int, name: str, t: float, **fields: Any) -> None:
        """Observe one causal-tracing span (sampled jobs only, so the
        ring sees the tail of the traced lifecycle activity)."""
        entry: Dict[str, Any] = {"job": job_id, "span": name, "t": t}
        entry.update(fields)
        self._trace.append(entry)

    # -- wiring ----------------------------------------------------------
    def chain_kernel_trace(
        self, existing: Optional[Callable[[float, Callable, tuple], None]]
    ) -> Callable[[float, Callable, tuple], None]:
        """A ``Simulator.trace`` callback feeding the kernel ring.

        Chains to (rather than replaces) any already-installed trace
        callback, so an observer set on ``sim.trace`` before this one
        keeps receiving every event.
        """
        append = self._kernel.append
        if existing is None:

            def trace(t: float, fn: Callable, args: tuple) -> None:
                append((t, fn))

        else:

            def trace(t: float, fn: Callable, args: tuple) -> None:
                append((t, fn))
                existing(t, fn, args)

        return trace

    def observe_ledger(self, ledger: Any) -> None:
        """Hook a :class:`~repro.core.ledger.CostLedger`'s observer.

        Chains to a pre-existing observer rather than displacing it.
        """
        previous = getattr(ledger, "observer", None)
        if previous is None:
            ledger.observer = self.ledger_charge
        else:
            record = self.ledger_charge

            def chained(category: str, amount: float, source: Optional[Tuple]) -> None:
                record(category, amount, source)
                previous(category, amount, source)

            ledger.observer = chained

    # -- inspection / dumping -------------------------------------------
    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """The rings as JSON-ready channel lists (labels resolved now)."""
        return {
            "kernel": [{"t": t, "fn": _fn_label(fn)} for t, fn in self._kernel],
            "ledger": list(self._ledger),
            "tuner": list(self._tuner),
            "faults": list(self._faults),
            "notes": list(self._notes),
            "trace": list(self._trace),
        }

    def dump(
        self,
        reason: str,
        error: Optional[BaseException] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write a post-mortem bundle and return its path.

        Bundle names are ``bundle-<pid>-<n>.json`` — PID-stamped so
        parent and pool workers never collide, sequenced so repeated
        dumps within one process stay distinct.
        """
        err_payload = None
        if error is not None:
            if error.__traceback__ is not None:
                tb = "".join(
                    traceback.format_exception(type(error), error, error.__traceback__)
                )
            else:
                tb = f"{type(error).__name__}: {error}"
            err_payload = {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": tb,
            }
        payload = {
            "schema": BUNDLE_SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "wall_time": time.time(),
            "context": context or {},
            "error": err_payload,
            "channels": self.snapshot(),
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        self._bundle_seq += 1
        path = self.directory / f"bundle-{os.getpid()}-{self._bundle_seq}.json"
        # default=repr: a bundle must always be writable, even when a
        # channel captured something exotic — forensics over fidelity.
        path.write_text(json.dumps(payload, indent=2, default=repr) + "\n", encoding="utf-8")
        self.bundles.append(path)
        return path


# ---------------------------------------------------------------------------
# Ambient recorder (process-global, PID-guarded like the telemetry session)
# ---------------------------------------------------------------------------

_ambient: Optional[FlightRecorder] = None
#: PID whose environment was last consulted; ``None`` forces a fresh
#: check.  Forked pool workers inherit the parent's value, see a PID
#: mismatch, and re-consult the (inherited) environment — which is how
#: ``REPRO_FLIGHT_RECORDER=1`` auto-enables recording inside workers.
_env_checked_pid: Optional[int] = None


def current() -> Optional[FlightRecorder]:
    """The process's ambient recorder, or ``None`` when recording is off."""
    global _ambient, _env_checked_pid
    pid = os.getpid()
    if _env_checked_pid != pid:
        _env_checked_pid = pid
        from ..envknobs import get_bool, get_str

        if get_bool(ENV_ENABLE):
            _ambient = FlightRecorder(get_str(ENV_DIR, default=DEFAULT_DIR))
        else:
            _ambient = None
    return _ambient


def enable(directory: "str | Path | None" = None, capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Install (and return) a fresh ambient recorder for this process."""
    global _ambient, _env_checked_pid
    _ambient = FlightRecorder(directory, capacity=capacity)
    _env_checked_pid = os.getpid()
    return _ambient


def disable() -> None:
    """Remove the ambient recorder (idempotent)."""
    global _ambient, _env_checked_pid
    _ambient = None
    _env_checked_pid = os.getpid()
