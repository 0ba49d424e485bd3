"""The ``fast`` kernel backend: array-backed event storage.

:class:`FastSimulator` implements the same :class:`KernelBackend`
contract as the ``reference`` :class:`~repro.sim.kernel.Simulator` —
proven equivalent by the cross-backend conformance and differential
suites — with a different event store tuned for the ROADMAP's
million-pending-event scaling cases:

* **Slot-indexed payload arrays.**  Callback and args live in parallel
  lists (``_fns`` / ``_argss``) indexed by a recycled slot number, with
  free-list slot reuse as events fire or are cancelled.  No per-event
  entry object is allocated: the only per-event allocation on the hot
  path is the ``(time, seq, slot)`` key tuple, which doubles as the
  cancellation handle.  ``_keys[slot]`` remembers which key currently
  owns each slot, so a stale handle (event fired, slot since reused)
  can never cancel the wrong event — the generation check is an
  identity comparison against the unique-``seq`` key.
* **A sorted spine instead of a single heap.**  Pending events live in
  three structures, all holding the same key tuples: a *spine* (sorted
  list consumed by cursor — O(1) pops, no sift), a small overflow
  *heap* (``heapq``) for out-of-order arrivals, and a *bulk* buffer
  (unsorted appends while the spine is exhausted) promoted with one
  Timsort when dispatch resumes.  Arrivals that sort at or near the
  spine's tail — the overwhelmingly common pattern in discrete-event
  workloads (interval timers, timeouts, pre-generated arrival
  processes) — are O(1) appends / tiny insorts.  Dispatch takes the
  minimum of spine head and heap head, which preserves the exact
  ``(time, seq)`` total order.  Sorted runs thus deliver in batches:
  the spine is the ``pop_until`` batching surface, consumed without a
  single comparison sift.

Design note — int-encoded keys.  The obvious alternative store (a heap
of ``(time_bits << 96) | (seq << 32) | slot`` ints, IEEE-754 monotone
time encoding) was prototyped and measured *slower* than both the
reference kernel and this design at realistic heap sizes: every touch
of a 160-bit key is an arbitrary-precision int operation that
allocates, and the encode cost on ``schedule`` dwarfs what cheaper
sift comparisons save until heaps grow far beyond even the million
pending-event regime.  The sorted-spine layout beats both by removing
per-event sift comparisons entirely on the common path.

Cancellation is lazy, exactly as in the reference backend: a cancelled
event's key stays where it is (its slot's ``_fns`` entry becomes
``None``) until consumed or compacted away, and compaction triggers on
the same "more than half dead, store non-trivial" policy — with the
live count recounted during compaction, as the reference kernel
resets its dead-entry count when it rebuilds its heap.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from .kernel import SimulationError

__all__ = ["FastSimulator"]

# Compaction policy (the reference Simulator's): rebuild when the
# pending store is non-trivial and more than half dead.
_COMPACT_MIN = 64
# Arrivals whose sorted position is within this many entries of the
# spine's tail are insorted (cheap memmove); anything deeper goes to
# the overflow heap instead.
_INSORT_TAIL = 32
# Dispatched spine prefixes longer than this are physically deleted
# once they dominate the list (amortized O(1) per event).
_TRIM_MIN = 65536


class FastSimulator:
    """Array-backed sequential discrete-event simulator.

    Drop-in behavioural replacement for the reference
    :class:`~repro.sim.kernel.Simulator`; the only visible difference is
    the *type* of the scheduling handle (an opaque key tuple rather than
    a ``[time, seq, fn, args]`` heap entry), which contract code must treat
    opaquely anyway — store it, compare it with ``is not None``, pass it
    to :meth:`cancel`.
    """

    __slots__ = (
        "_spine",
        "_cursor",
        "_heap",
        "_bulk",
        "_fns",
        "_argss",
        "_keys",
        "_free",
        "_now",
        "_seq",
        "_events_executed",
        "_live",
        "trace",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._spine: List[tuple] = []
        self._cursor = 0
        self._heap: List[tuple] = []
        self._bulk: List[tuple] = []
        self._fns: List[Optional[Callable]] = []
        self._argss: List[Optional[tuple]] = []
        self._keys: List[Optional[tuple]] = []
        self._free: List[int] = []
        self._now = float(start_time)
        self._seq = 0
        self._events_executed = 0
        self._live = 0
        #: Optional callable ``(time, fn, args)`` invoked before each event
        #: executes; ``None`` disables tracing (same contract as reference).
        self.trace: Optional[Callable[[float, Callable, tuple], None]] = None

    # ------------------------------------------------------------------
    # Clock and counters
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> tuple:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Same contract as the reference backend; returns an opaque handle
        for :meth:`cancel`.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._fns[slot] = fn
            self._argss[slot] = args
        else:
            slot = len(self._fns)
            self._fns.append(fn)
            self._argss.append(args)
            self._keys.append(None)
        key = (t, seq, slot)
        self._keys[slot] = key
        spine = self._spine
        cursor = self._cursor
        if cursor < len(spine):
            # Spine active: tail appends are the common case (interval
            # timers, timeouts, arrival processes are ~monotone).
            if key >= spine[-1]:
                spine.append(key)
            else:
                pos = bisect_left(spine, key, cursor)
                if len(spine) - pos <= _INSORT_TAIL:
                    spine.insert(pos, key)
                else:
                    heappush(self._heap, key)
        elif not self._bulk:
            # Spine exhausted with no backlog: restart it in place (a
            # single key is trivially sorted).
            if cursor:
                del spine[:]
                self._cursor = 0
            spine.append(key)
        else:
            # Backlog building while dispatch is idle: buffer unsorted,
            # one Timsort promotes the whole batch when dispatch resumes.
            self._bulk.append(key)
        self._live += 1
        return key

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> tuple:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        return self.schedule(time - self._now, fn, *args)

    def cancel(self, handle: tuple) -> None:
        """Cancel a previously scheduled event.

        No-op for handles whose event already fired or was already
        cancelled: the identity comparison against the slot's current
        owner key makes stale handles (slot since recycled) harmless.
        """
        slot = handle[2]
        if self._keys[slot] is not handle or self._fns[slot] is None:
            return
        self._fns[slot] = None
        self._argss[slot] = None
        self._live -= 1
        total = len(self._spine) - self._cursor + len(self._heap) + len(self._bulk)
        if total > _COMPACT_MIN and self._live < total // 2:
            self._compact()

    def _compact(self) -> None:
        """Drop dead keys from all three stores; ``O(n)``.

        Dead keys' slots go back on the free list here (nothing
        references them any more).  All three lists are mutated *in
        place*: ``run()`` holds local aliases, and cancellations
        arriving from inside a dispatched callback must not strand the
        dispatch loop on stale lists.  The live count is recounted from
        the rebuilt stores rather than trusted, as the reference
        kernel's compaction resets its dead-entry count.
        """
        fns = self._fns
        free_append = self._free.append
        spine = self._spine
        alive: List[tuple] = []
        append = alive.append
        for key in spine[self._cursor :]:
            if fns[key[2]] is not None:
                append(key)
            else:
                free_append(key[2])
        spine[:] = alive
        self._cursor = 0
        heap = self._heap
        alive = []
        append = alive.append
        for key in heap:
            if fns[key[2]] is not None:
                append(key)
            else:
                free_append(key[2])
        heap[:] = alive
        heapq.heapify(heap)
        bulk = self._bulk
        alive = []
        append = alive.append
        for key in bulk:
            if fns[key[2]] is not None:
                append(key)
            else:
                free_append(key[2])
        bulk[:] = alive
        self._live = len(spine) + len(heap) + len(bulk)

    def _refill(self) -> None:
        """Cursor hit the spine's end: trim it and promote the backlog."""
        spine = self._spine
        if self._cursor:
            del spine[:]
            self._cursor = 0
        bulk = self._bulk
        if bulk:
            bulk.sort()
            spine.extend(bulk)
            bulk.clear()

    # ------------------------------------------------------------------
    # Queue inspection (part of the KernelBackend contract)
    # ------------------------------------------------------------------
    def _select(self) -> Optional[Tuple[tuple, bool]]:
        """The next live key and whether it comes from the spine.

        Discards dead heads (recycling their slots) as a side effect,
        and promotes the backlog if dispatch is about to resume — both
        invisible to the contract.  Returns ``None`` when nothing live
        is pending.
        """
        fns = self._fns
        free_append = self._free.append
        heap = self._heap
        while True:
            spine = self._spine
            cursor = self._cursor
            if cursor >= len(spine) and (self._bulk or cursor):
                self._refill()
                continue
            key = None
            from_spine = False
            if cursor < len(spine):
                key = spine[cursor]
                if fns[key[2]] is None:
                    self._cursor = cursor + 1
                    free_append(key[2])
                    continue
                from_spine = True
            if heap:
                hkey = heap[0]
                if fns[hkey[2]] is None:
                    heappop(heap)
                    free_append(hkey[2])
                    continue
                if not from_spine or hkey < key:
                    return (hkey, False)
            if key is None or not from_spine:
                return None
            return (key, True)

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest pending event, or ``None``.

        Dead heads encountered are discarded (their slots recycled), so
        repeated peeks stay cheap — same side effect as reference.
        """
        selected = self._select()
        return None if selected is None else selected[0][0]

    def pop_until(self, limit: Optional[float] = None):
        """Remove and return the earliest pending ``(time, fn, args)``
        at or before ``limit`` without dispatching it.

        Identical contract to the reference backend's ``pop_until``:
        ``None`` (event left queued) when the earliest pending event is
        beyond ``limit`` or nothing is pending; clock, trace, and
        counters untouched.
        """
        selected = self._select()
        if selected is None:
            return None
        key, from_spine = selected
        t = key[0]
        if limit is not None and t > limit:
            return None
        if from_spine:
            self._cursor += 1
        else:
            heappop(self._heap)
        slot = key[2]
        fn = self._fns[slot]
        args = self._argss[slot]
        self._fns[slot] = None
        self._argss[slot] = None
        self._free.append(slot)
        self._live -= 1
        return (t, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event; ``False`` if queue empty."""
        popped = self.pop_until(None)
        if popped is None:
            return False
        t, fn, args = popped
        if t > self._now:  # clock never runs backwards (see run())
            self._now = t
        if self.trace is not None:
            self.trace(t, fn, args)
        self._events_executed += 1
        fn(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until exhaustion, a time horizon, or an event budget.

        Exact contract of the reference backend's ``run`` (inclusive
        ``until``, clock lands on ``until`` even under a ``max_events``
        stop, ``max_events=0`` dispatches nothing but still advances the
        clock).

        The loop keeps the spine cursor in a local for speed, syncing it
        to ``self._cursor`` around every callback invocation: callbacks
        re-enter ``schedule``/``cancel`` (which read the cursor and may
        compact the stores in place), and may even run nested
        ``run()``/``step()`` calls.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"horizon {until} is before current time {self._now}")
        budget = max_events if max_events is not None else -1
        fns = self._fns
        argss = self._argss
        free_append = self._free.append
        heap = self._heap
        spine = self._spine
        bulk = self._bulk
        cursor = self._cursor
        try:
            while budget != 0:
                if cursor >= len(spine):
                    if bulk or cursor:
                        self._cursor = cursor
                        self._refill()
                        cursor = 0
                    if cursor >= len(spine):
                        if not heap:
                            break
                        # Heap-only: dispatch straight off the heap.
                        hkey = heap[0]
                        hslot = hkey[2]
                        fn = fns[hslot]
                        if fn is None:
                            heappop(heap)
                            free_append(hslot)
                            continue
                        t = hkey[0]
                        if until is not None and t > until:
                            break
                        heappop(heap)
                        args = argss[hslot]
                        fns[hslot] = None
                        argss[hslot] = None
                        free_append(hslot)
                        self._live -= 1
                        if t > self._now:
                            self._now = t
                        if self.trace is not None:
                            self.trace(t, fn, args)
                        self._events_executed += 1
                        self._cursor = cursor
                        fn(*args)
                        cursor = self._cursor
                        if budget > 0:
                            budget -= 1
                        continue
                t, seq, slot = key = spine[cursor]
                fn = fns[slot]
                if fn is None:
                    cursor += 1
                    free_append(slot)
                    continue
                if heap and heap[0] < key:
                    # Out-of-order arrival due before the spine head.
                    hkey = heap[0]
                    hslot = hkey[2]
                    hfn = fns[hslot]
                    if hfn is None:
                        heappop(heap)
                        free_append(hslot)
                        continue
                    t = hkey[0]
                    if until is not None and t > until:
                        break
                    heappop(heap)
                    args = argss[hslot]
                    fns[hslot] = None
                    argss[hslot] = None
                    free_append(hslot)
                    self._live -= 1
                    if t > self._now:
                        self._now = t
                    if self.trace is not None:
                        self.trace(t, hfn, args)
                    self._events_executed += 1
                    self._cursor = cursor
                    hfn(*args)
                    cursor = self._cursor
                    if budget > 0:
                        budget -= 1
                    continue
                if until is not None and t > until:
                    break
                cursor += 1
                args = argss[slot]
                fns[slot] = None
                argss[slot] = None
                free_append(slot)
                self._live -= 1
                if t > self._now:  # clock never runs backwards
                    self._now = t
                if self.trace is not None:
                    self.trace(t, fn, args)
                self._events_executed += 1
                self._cursor = cursor
                fn(*args)
                cursor = self._cursor
                if budget > 0:
                    budget -= 1
                if cursor > _TRIM_MIN and cursor * 2 > len(spine):
                    del spine[:cursor]
                    cursor = 0
        finally:
            self._cursor = cursor
        if until is not None and until > self._now:
            self._now = until
