"""A compatibility name for the retired ``fast`` kernel backend.

:class:`~repro.sim.kernel.Simulator` is the only kernel.  This module
exists for one importer: the benchmark's layer tracer
(``benchmarks/e2e/layertrace.py``) imports :class:`FastSimulator` and
wraps its ``run`` alongside ``Simulator.run``.  The name is a subclass,
not an alias: with an alias the tracer would wrap ``Simulator.run``
twice and count every kernel run's wall time double.  Nothing
instantiates it; it goes when that import does.
"""

from __future__ import annotations

from .kernel import Simulator

__all__ = ["FastSimulator"]


class FastSimulator(Simulator):
    """Never instantiated: see the module docstring."""

    __slots__ = ()
