"""The discrete-event simulation kernel.

:class:`Simulator` is the heart of the substrate that replaces Parsec in
the original study: a sequential, deterministic, seedable discrete-event
engine.  All other subsystems (network transport, resources, schedulers,
estimators, middleware, workload injection) are built as callbacks and
entities driven by a single ``Simulator`` instance.

The paper's simulator was written in Parsec, a parallel discrete-event
simulation language.  We only need Parsec's *semantics* (timestamped
events executed in nondecreasing time order, deterministic tie-breaking),
not its parallel execution engine, so a sequential heap is an exact
behavioural substitute for these experiments.

Design notes
------------
* Time is a ``float`` in abstract "time units", matching the paper (e.g.
  ``T_CPU = 700 time units``).
* Events fire in ``(time, seq)`` order; ``seq`` is the scheduling order,
  which makes ties deterministic and runs reproducible.
* The simulator owns its future-event list: a binary heap of mutable
  ``[time, seq, fn, args]`` lists.  List comparison runs in C and the
  unique ``seq`` guarantees ``fn`` is never compared.  The entry itself
  is the opaque handle :meth:`Simulator.schedule` returns, so scheduling
  allocates one list and nothing else.
* Cancellation is *lazy*: :meth:`Simulator.cancel` sets the entry's
  ``fn`` to ``None`` (dropping ``args``) and the dead entry is skipped
  when it reaches the top of the heap.  Dispatch nulls ``fn`` the same
  way, which is what makes cancelling a fired event a no-op.  Once dead
  entries are more than half of a non-trivial heap, the heap is rebuilt
  **in place** (``run()`` holds a local reference to it, possibly in a
  nested call).
* The kernel is intentionally tiny and allocation-light — the scalability
  experiments execute millions of events, so schedule/pop/dispatch are
  inlined into :meth:`Simulator.schedule` and :meth:`Simulator.run`.
  ``pending`` is derived from the heap size and the dead-entry count,
  which only cancellation and discarding touch.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = ["Simulator", "SimulationError"]

# Compaction policy: rebuild the heap once it holds more than this many
# entries and more than half of them are cancelled.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad horizons)."""


class Simulator:
    """A sequential discrete-event simulator.

    Semantics (pinned by ``tests/test_kernel_conformance.py``):

    * Events fire in ``(time, seq)`` total order, ``seq`` being the
      scheduling order — ties are FIFO and deterministic.
    * ``schedule(delay, fn, *args)`` rejects negative/NaN delays with
      :class:`SimulationError` and returns an opaque cancellation
      handle; ``schedule_at`` is the absolute-time spelling under the
      same no-past rule.
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

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (defaults to ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run(until=10.0)
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    __slots__ = ("_heap", "now", "_seq", "_dead", "_events_executed", "trace")

    def __init__(self, start_time: float = 0.0) -> None:
        #: the future-event list: a heap of ``[time, seq, fn, args]``
        self._heap: List[list] = []
        #: current simulated time
        self.now = float(start_time)
        self._seq = 0
        # Cancelled entries still physically in the heap.
        self._dead = 0
        self._events_executed = 0
        #: Optional callable ``(time, fn, args)`` invoked before each event
        #: executes.  Used by tests and debugging tools; ``None`` disables
        #: tracing entirely (the hot path checks a single attribute).
        self.trace: Optional[Callable[[float, Callable, tuple], None]] = None

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._dead

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Nonnegative offset from the current clock.  ``0.0`` is allowed
            and fires after all events already scheduled for the current
            instant (stable FIFO semantics).
        fn:
            Callback to invoke.
        *args:
            Positional arguments for ``fn``.

        Returns
        -------
        list
            An opaque handle that can be passed to :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or NaN.
        ValueError
            If ``fn`` is ``None`` (the kernel's mark of a dead entry).
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        if fn is None:
            raise ValueError("cannot schedule None: it marks cancelled events")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Equivalent to ``schedule(time - now, ...)`` and subject to the same
        no-past rule.
        """
        return self.schedule(time - self.now, fn, *args)

    def cancel(self, handle: list) -> None:
        """Cancel a previously scheduled event.

        Cancelling an event that already fired or was already cancelled is
        a no-op, which lets protocol code cancel timeout handles without
        tracking whether they raced with delivery.  The callback and its
        arguments are dropped at once, so a cancelled event pins nothing
        while it waits to be discarded.
        """
        if handle[2] is None:
            return
        handle[2] = None
        handle[3] = ()
        self._dead += 1
        heap = self._heap
        n = len(heap)
        if n > _COMPACT_MIN and n - self._dead < n // 2:
            # In place: run() may be iterating this very list object.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._dead = 0

    # ------------------------------------------------------------------
    # Queue inspection
    # ------------------------------------------------------------------
    def _live_head(self) -> Optional[list]:
        """The earliest live entry (left in place), discarding dead ones."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not None:
                return entry
            heappop(heap)
            self._dead -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest pending event, or ``None``.

        Does not advance the clock or dispatch anything.
        """
        entry = self._live_head()
        return None if entry is None else entry[0]

    def pop_until(self, limit: Optional[float] = None):
        """Remove and return the earliest pending ``(time, fn, args)``
        at or before ``limit`` without dispatching it.

        Returns ``None`` — leaving the event queued — when the earliest
        pending event fires after ``limit`` or nothing is pending;
        ``limit=None`` means no horizon.  The clock, the trace hook, and
        ``events_executed`` are untouched: this is the dispatch-loop
        primitive, exposed so the conformance suite can pin its batching
        semantics.
        """
        entry = self._live_head()
        if entry is None or (limit is not None and entry[0] > limit):
            return None
        heappop(self._heap)
        time, _, fn, args = entry
        entry[2] = None
        entry[3] = ()
        return (time, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the queue was
            empty (the clock does not move in that case).
        """
        if self._live_head() is None:
            return False
        self.run(max_events=1)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until exhaustion, a time horizon, or an event budget.

        Parameters
        ----------
        until:
            If given, execute only events with ``time <= until`` and then
            advance the clock *to* ``until`` (even if the queue still holds
            later events, and even when ``max_events`` stopped the run
            first — the clock lands on ``until`` whenever it is given).
            Must not be earlier than the current clock.  Events left
            behind the advanced clock still fire, in order, on a later
            ``run()``/``step()``; the clock simply does not move backwards
            for them.
        max_events:
            If given, stop after dispatching this many additional events
            (``0`` dispatches none).  Mainly a safety valve for runaway
            protocol loops in tests.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"horizon {until} is before current time {self.now}")
        # The dispatch loop is the simulation's hottest path (millions of
        # events per run): it pops the heap directly and dispatches
        # inline.  A negative budget counts down forever.
        horizon = math.inf if until is None else until
        budget = -1 if max_events is None else max_events
        heap = self._heap
        while budget and heap:
            entry = heappop(heap)
            time, _, fn, args = entry
            if fn is None:  # cancelled: discard and keep looking
                self._dead -= 1
                continue
            if time > horizon:  # put it back: it fires on a later run
                heappush(heap, entry)
                break
            entry[2] = None  # fired: a late cancel is a no-op
            entry[3] = ()  # release references promptly
            if time > self.now:  # clock never runs backwards
                self.now = time
            if self.trace is not None:
                self.trace(time, fn, args)
            self._events_executed += 1
            fn(*args)
            budget -= 1
        if until is not None and until > self.now:
            self.now = until
