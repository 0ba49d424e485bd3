"""Discrete-event simulation kernel (the Parsec substitute).

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and its
  future-event list; scheduling returns an opaque handle for
  :meth:`~repro.sim.kernel.Simulator.cancel`.
* :class:`~repro.sim.entity.Entity` / :class:`~repro.sim.entity.MessageServer`
  — actor base classes.
* :class:`~repro.sim.rng.RngHub` — deterministic named random streams.
* :mod:`~repro.sim.monitor` — statistics collectors.
"""

from .entity import ChargeSink, Entity, MessageServer
from .kernel import SimulationError, Simulator
from .monitor import Counter, Tally, TimeWeighted
from .rng import RngHub
from .trace import TraceRecord, TraceRecorder, busy_gantt, job_timeline

__all__ = [
    "ChargeSink",
    "Counter",
    "Entity",
    "MessageServer",
    "RngHub",
    "SimulationError",
    "Simulator",
    "Tally",
    "TimeWeighted",
    "TraceRecord",
    "TraceRecorder",
    "busy_gantt",
    "job_timeline",
]
