"""Discrete-event simulation kernel (the Parsec substitute).

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and its
  future-event list (the ``reference`` backend); scheduling returns an
  opaque handle for :meth:`~repro.sim.kernel.Simulator.cancel`.
* :class:`~repro.sim.fastkernel.FastSimulator` — the array-backed
  ``fast`` backend.
* :mod:`~repro.sim.backend` — the :class:`KernelBackend` contract and
  registry (:func:`create_kernel` selects by name /
  ``REPRO_KERNEL_BACKEND``).
* :class:`~repro.sim.entity.Entity` / :class:`~repro.sim.entity.MessageServer`
  — actor base classes.
* :class:`~repro.sim.rng.RngHub` — deterministic named random streams.
* :mod:`~repro.sim.monitor` — statistics collectors.
"""

from .backend import (
    KernelBackend,
    backend_names,
    create_kernel,
    register_backend,
    resolve_backend,
)
from .entity import ChargeSink, Entity, MessageServer
from .fastkernel import FastSimulator
from .kernel import SimulationError, Simulator
from .monitor import Counter, SeriesRecorder, Tally, TimeWeighted
from .rng import RngHub
from .trace import TraceRecord, TraceRecorder, busy_gantt, job_timeline

__all__ = [
    "ChargeSink",
    "Counter",
    "Entity",
    "FastSimulator",
    "KernelBackend",
    "MessageServer",
    "RngHub",
    "SeriesRecorder",
    "SimulationError",
    "Simulator",
    "Tally",
    "TimeWeighted",
    "TraceRecord",
    "TraceRecorder",
    "backend_names",
    "busy_gantt",
    "create_kernel",
    "job_timeline",
    "register_backend",
    "resolve_backend",
]
