"""Kernel backend registry: pluggable event-loop implementations.

The simulation kernel is consumed through a narrow contract —
:class:`KernelBackend` — with two registered implementations:

``reference``
    :class:`~repro.sim.kernel.Simulator`, the binary-heap engine whose
    ``[time, seq, fn, args]`` entries double as cancel handles.  The
    semantics oracle: the conformance and differential suites define
    correctness as "behaves exactly like reference".
``fast``
    :class:`~repro.sim.fastkernel.FastSimulator`, array-backed storage
    with a sorted-spine event store (see its module docstring).

Backends are *bit-identical* by contract, not merely statistically
equivalent: every registered backend must dispatch the same events in
the same ``(time, seq)`` order with the same clock readings, so study
results (F/G/H, attribution cells, metrics bytes) do not depend on the
backend at all.  That is why the backend choice is recorded as
*provenance* (manifests, cache entries, bench reports) but deliberately
**excluded from run-cache keys** — a cached result is valid for every
backend, and the differential suite enforces it.

Selection precedence: explicit argument > ``REPRO_KERNEL_BACKEND``
environment variable > ``reference``.  The env var is what lets the CI
matrix re-run the whole suite on the fast backend without touching any
call sites, and pool workers inherit it.

Writing a new backend
---------------------
Implement the :class:`KernelBackend` contract, call
:func:`register_backend`, and parametrized conformance/differential
tests pick it up automatically (they iterate :func:`backend_names`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from .fastkernel import FastSimulator
from .kernel import Simulator

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "KernelBackend",
    "backend_names",
    "create_kernel",
    "register_backend",
    "resolve_backend",
]

#: environment variable consulted when no explicit backend is given
ENV_BACKEND = "REPRO_KERNEL_BACKEND"
#: the semantics oracle; used when neither argument nor env select one
DEFAULT_BACKEND = "reference"


@runtime_checkable
class KernelBackend(Protocol):
    """The contract every kernel backend implements.

    Semantics (pinned by ``tests/test_kernel_conformance.py``):

    * Events fire in ``(time, seq)`` total order, ``seq`` being the
      scheduling order — ties are FIFO and deterministic.
    * ``schedule(delay, fn, *args)`` rejects negative/NaN delays with
      :class:`~repro.sim.kernel.SimulationError` and returns an opaque
      cancellation handle; ``schedule_at`` is the absolute-time
      spelling under the same no-past rule.
    * ``cancel(handle)`` is lazy and idempotent: cancelling a fired or
      already-cancelled event is a no-op, and a cancelled event never
      runs nor counts in ``events_executed``.
    * ``run(until=, max_events=)``: inclusive horizon; the clock lands
      exactly on ``until`` whenever given — even when ``max_events``
      (``0`` allowed) stopped dispatch first — and never runs
      backwards.  A horizon before ``now`` raises.
    * ``step()`` dispatches the single earliest event, returning
      whether one ran.
    * ``pop_until(limit)`` removes and returns the earliest pending
      ``(time, fn, args)`` at or before ``limit`` (``None`` = no
      horizon) without dispatching: clock, trace, and counters are
      untouched.  ``peek_time()`` reports the earliest pending time
      without removing anything.
    * ``pending`` counts live events; ``events_executed`` counts
      dispatched ones; ``trace`` (read *per event*, so it can be
      swapped mid-run) is called as ``trace(time, fn, args)`` before
      each dispatch.
    """

    trace: Optional[Callable[[float, Callable, tuple], None]]

    @property
    def now(self) -> float: ...

    @property
    def events_executed(self) -> int: ...

    @property
    def pending(self) -> int: ...

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Any: ...

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Any: ...

    def cancel(self, handle: Any) -> None: ...

    def peek_time(self) -> Optional[float]: ...

    def pop_until(self, limit: Optional[float] = None) -> Optional[tuple]: ...

    def step(self) -> bool: ...

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None: ...


_REGISTRY: Dict[str, Callable[..., KernelBackend]] = {}


def register_backend(name: str, factory: Callable[..., KernelBackend]) -> None:
    """Register ``factory`` (called as ``factory(start_time=...)``) under
    ``name``.

    Re-registering an existing name replaces it — deliberate, so tests
    can shadow a backend with an instrumented double and restore it.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, sorted (stable test-param order)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: Optional[str] = None) -> str:
    """The backend name to use: explicit > ``REPRO_KERNEL_BACKEND`` > default.

    An empty-string env value counts as unset.  Unknown names raise
    ``ValueError`` listing what is registered.
    """
    if name is None:
        from ..envknobs import get_str

        name = get_str(ENV_BACKEND, default=DEFAULT_BACKEND)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {', '.join(backend_names())}"
        )
    return name


def create_kernel(name: Optional[str] = None, start_time: float = 0.0) -> KernelBackend:
    """Instantiate the selected kernel backend (see :func:`resolve_backend`)."""
    return _REGISTRY[resolve_backend(name)](start_time=start_time)


register_backend("reference", Simulator)
register_backend("fast", FastSimulator)
