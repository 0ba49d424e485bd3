"""Unit and property tests for the simulator's future-event list.

The heap lives inside :class:`~repro.sim.kernel.Simulator`: entries are
``[time, seq, fn, args]`` lists, the entry is the cancel handle, and
cancellation is lazy with in-place compaction.  These tests pin that
behaviour through the public kernel surface (``schedule``/``cancel``/
``pop_until``/``peek_time``/``run`` and the ``pending``/
``events_executed`` counters).
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator


def noop(*_):
    pass


def drain(sim):
    """Pop every pending event without dispatching: ``[(time, args)]``."""
    out = []
    while True:
        item = sim.pop_until(None)
        if item is None:
            return out
        out.append((item[0], item[2]))


class TestEventOrdering:
    def test_earlier_time_wins(self):
        sim = Simulator()
        sim.schedule(2.0, noop, "late")
        sim.schedule(1.0, noop, "early")
        assert drain(sim) == [(1.0, ("early",)), (2.0, ("late",))]

    def test_seq_breaks_ties(self):
        sim = Simulator()
        for tag in range(5):
            sim.schedule(1.0, noop, tag)
        assert [args for _, args in drain(sim)] == [(i,) for i in range(5)]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        sim.cancel(h)
        assert sim.pending == 0
        sim.cancel(h)
        assert sim.pending == 0
        sim.run()
        assert fired == []
        assert sim.events_executed == 0

    def test_cancel_drops_references(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        handle = sim.schedule(1.0, noop, payload)
        del payload
        sim.cancel(handle)
        gc.collect()
        # The handle (and the dead heap entry) are still alive, but
        # neither pins the callback's arguments any more.
        assert ref() is None
        assert sim.pending == 0


class TestEventQueue:
    def test_pop_in_time_order(self):
        sim = Simulator()
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, noop)
        assert [t for t, _ in drain(sim)] == [1.0, 2.0, 3.0]

    def test_pop_empty_returns_none(self):
        sim = Simulator()
        assert sim.pop_until(None) is None
        assert sim.step() is False
        assert sim.now == 0.0

    def test_len_tracks_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), noop) for i in range(4)]
        assert sim.pending == 4
        sim.cancel(handles[0])
        assert sim.pending == 3

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), noop) for i in range(5)]
        for h in handles[:3]:
            sim.cancel(h)
        assert [t for t, _ in drain(sim)] == [3.0, 4.0]

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        a = sim.schedule(1.0, noop)
        sim.schedule(2.0, noop)
        sim.cancel(a)
        assert sim.peek_time() == 2.0
        assert sim.pending == 1

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_compaction_preserves_survivors(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), noop, i) for i in range(200)]
        # Cancelling 150 of 200 crosses the "more than half dead"
        # threshold, triggering the O(n) in-place compaction.
        for h in handles[:150]:
            sim.cancel(h)
        assert len(sim._heap) < 200
        assert sim.pending == 50
        assert [t for t, _ in drain(sim)] == [float(i) for i in range(150, 200)]


class TestCancellationAccounting:
    """Regression tests for live-count drift.

    Historically a double cancel could double-decrement the live count,
    suppressing compaction forever.  Cancel is now idempotent (a dead or
    fired entry has ``fn`` set to ``None`` and is refused), the kernel
    refuses to schedule a dead entry, and compaction recounts from the
    rebuilt heap.
    """

    def test_queue_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, noop)
        sim.cancel(h)
        assert sim.pending == 0
        sim.cancel(h)
        assert sim.pending == 0
        assert sim.peek_time() is None

    def test_queue_cancel_after_pop_is_refused(self):
        sim = Simulator()
        popped = sim.schedule(1.0, noop)
        fired = sim.schedule(2.0, noop)
        keep = sim.schedule(3.0, noop)
        assert sim.pop_until(None)[0] == 1.0
        sim.run(max_events=1)
        assert (sim.pending, sim.events_executed) == (1, 1)
        # Entries already removed from the heap: a late cancel must not
        # touch the live count or the dispatch count.
        sim.cancel(popped)
        sim.cancel(fired)
        assert (sim.pending, sim.events_executed) == (1, 1)
        sim.run()
        assert (sim.pending, sim.events_executed) == (0, 2)
        sim.cancel(keep)
        assert (sim.pending, sim.events_executed) == (0, 2)

    def test_push_of_dead_event_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(1.0, None)
        assert sim.pending == 0

    def test_compaction_recount_stays_exact(self):
        # The old drift pattern — the same events cancelled over and
        # over — across the compaction threshold: the count stays on
        # ground truth throughout and after the rebuild.
        sim = Simulator()
        handles = [sim.schedule(float(i), noop, i) for i in range(200)]
        for i, h in enumerate(handles[:120]):
            sim.cancel(h)
            sim.cancel(h)
            assert sim.pending == 200 - (i + 1)
        for h in handles[:120]:
            sim.cancel(h)
        assert sim.pending == 80
        assert [t for t, _ in drain(sim)] == [float(i) for i in range(120, 200)]
        assert sim.pending == 0

    def test_drift_cannot_suppress_compaction_forever(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), noop, i) for i in range(300)]
        first = handles[0]
        sim.cancel(first)
        for _ in range(5):  # phantom cancels before the real wave
            sim.cancel(first)
        for h in handles[1:250]:
            sim.cancel(h)
        assert sim.pending == 50
        assert len(sim._heap) < 300  # compaction still fired
        assert [args[0] for _, args in drain(sim)] == list(range(250, 300))


class TestCompactionDuringRun:
    def test_handler_cancel_storm_compacts_in_place(self):
        """A callback cancelling most pending events mid-run forces a
        compaction while ``run()`` holds its reference to the heap:
        every survivor still fires in ``(time, seq)`` order and the
        counters stay exact."""
        sim = Simulator()
        fired = []
        handles = []
        for i in range(400):
            # two events per instant, so ties exercise seq order
            handles.append(sim.schedule(10.0 + i // 2, fired.append, i))
        survivors = [i for i in range(400) if i % 5 == 0]
        seen = {}

        def storm():
            before = len(sim._heap)
            for i, h in enumerate(handles):
                if i % 5:
                    sim.cancel(h)
            seen["compacted"] = len(sim._heap) < before
            seen["pending"] = sim.pending
            seen["executed"] = sim.events_executed

        sim.schedule(1.0, storm)
        sim.run(until=50.0)
        assert seen == {"compacted": True, "pending": 80, "executed": 1}
        # run() went on after the rebuild, up to its horizon
        assert fired == [i for i in survivors if 10.0 + i // 2 <= 50.0]
        assert sim.events_executed == 1 + len(fired)
        sim.run()
        assert fired == survivors
        assert (sim.pending, sim.events_executed) == (0, 1 + len(survivors))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False), st.booleans()),
        max_size=60,
    )
)
def test_queue_is_stable_total_order(entries):
    """Fired order must be sorted by (time, scheduling index), skipping
    cancelled entries — for any pattern of schedules and cancellations."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule_at(t, fired.append, (t, i)) for i, (t, _) in enumerate(entries)]
    for h, (_, cancel) in zip(handles, entries):
        if cancel:
            sim.cancel(h)
    expected = sorted((t, i) for i, (t, cancel) in enumerate(entries) if not cancel)
    assert sim.pending == len(expected)
    sim.run()
    assert fired == expected
    assert sim.events_executed == len(expected)
    assert sim.pending == 0
