"""Conformance suite for the simulation kernel contract.

The contract under test (see :class:`repro.sim.kernel.Simulator`):

* events fire in ``(time, seq)`` order — seq is scheduling order, so
  same-timestamp events fire FIFO;
* cancellation is lazy and idempotent: a cancelled event never fires,
  cancelling a fired or already-cancelled event is a no-op, and a stale
  handle can never kill a later event that reuses its storage;
* ``run(until)`` is inclusive, always leaves the clock exactly at
  ``until`` (even with ``max_events=0``), never runs the clock
  backwards, and raises :class:`SimulationError` on a horizon before
  ``now``;
* ``pop_until`` / ``peek_time`` expose the event stream without
  touching the clock, the trace hook, or ``events_executed``;
* the trace hook observes exactly the events that execute, in order;
* a random kernel program replays identically (no hidden global state).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import SimulationError, Simulator


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------


class TestOrdering:
    def test_time_order(self):
        sim = Simulator()
        log = []
        for t in (3.0, 1.0, 2.0, 0.5):
            sim.schedule(t, log.append, t)
        sim.run()
        assert log == [0.5, 1.0, 2.0, 3.0]

    def test_same_timestamp_fifo(self):
        # Ten same-time events must fire in scheduling order: ties are
        # broken by seq, which is assigned at schedule() time.
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_interleaved_times_and_ties(self):
        sim = Simulator()
        log = []
        plan = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (0.0, "e")]
        for t, tag in plan:
            sim.schedule(t, log.append, tag)
        sim.run()
        assert log == ["e", "b", "d", "a", "c"]

    def test_zero_delay_fires_at_now(self):
        sim = Simulator(start_time=4.0)
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=10.0)
        log = []
        sim.schedule_at(12.0, log.append, "later")
        sim.schedule_at(10.0, log.append, "now")
        sim.run()
        assert log == ["now", "later"]
        assert sim.now == 12.0


# ----------------------------------------------------------------------
# argument validation
# ----------------------------------------------------------------------


class TestValidation:
    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1e-9, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.9, lambda: None)

    def test_run_horizon_before_now_raises(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------


class TestCancel:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        log = []
        keep = sim.schedule(1.0, log.append, "keep")
        kill = sim.schedule(2.0, log.append, "kill")
        sim.cancel(kill)
        sim.run()
        assert log == ["keep"]
        assert sim.events_executed == 1

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.cancel(h)
        sim.cancel(h)  # second cancel: no-op, no error
        sim.run()
        assert sim.events_executed == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        log = []
        h = sim.schedule(1.0, log.append, "x")
        sim.run()
        sim.cancel(h)  # already fired: must not disturb anything
        sim.schedule(1.0, log.append, "y")
        sim.run()
        assert log == ["x", "y"]

    def test_cancel_from_within_handler(self):
        # A handler cancelling a later event must take effect even
        # though the victim may already sit in internal structures.
        sim = Simulator()
        log = []
        victim = sim.schedule(2.0, log.append, "victim")
        sim.schedule(1.0, lambda: sim.cancel(victim))
        sim.schedule(3.0, log.append, "after")
        sim.run()
        assert log == ["after"]

    def test_stale_handle_cannot_kill_reused_slot(self):
        # Fire an event, keep its handle, schedule many more events
        # (forcing any slot/storage reuse), then cancel via the stale
        # handle: every live event must still fire.
        sim = Simulator()
        log = []
        stale = sim.schedule(1.0, log.append, "first")
        sim.run()
        handles = [sim.schedule(2.0 + i, log.append, i) for i in range(20)]
        sim.cancel(stale)
        sim.run()
        assert log == ["first"] + list(range(20))

    def test_mass_cancel_triggers_compaction(self):
        # Cancel far more than half of a large pending set: the kernel
        # may compact internally, but survivors and order are untouched.
        sim = Simulator()
        log = []
        handles = [sim.schedule(float(i), log.append, i) for i in range(300)]
        for i, h in enumerate(handles):
            if i % 3:
                sim.cancel(h)
        sim.run()
        assert log == [i for i in range(300) if not i % 3]
        assert sim.pending == 0


# ----------------------------------------------------------------------
# run() clock semantics
# ----------------------------------------------------------------------


class TestRunClock:
    def test_until_is_inclusive(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "at-horizon")
        sim.schedule(2.5, log.append, "beyond")
        sim.run(until=2.0)
        assert log == ["at-horizon"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_clock_lands_on_until_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_zero_still_advances_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=3.0, max_events=0)
        assert sim.now == 3.0
        assert sim.events_executed == 0
        assert sim.pending == 1

    def test_max_events_budget(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), log.append, i)
        sim.run(max_events=2)
        assert log == [0, 1]
        assert sim.now == 2.0
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_resume_after_horizon(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, log.append, t)
        sim.run(until=1.5)
        assert log == [1.0]
        assert sim.now == 1.5
        sim.run(until=3.0)
        assert log == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_drain_leaves_clock_at_last_event(self):
        sim = Simulator()
        sim.schedule(4.25, lambda: None)
        sim.run()
        assert sim.now == 4.25
        assert sim.pending == 0

    def test_step_returns_whether_event_fired(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "x")
        assert sim.step() is True
        assert log == ["x"]
        assert sim.now == 1.0
        assert sim.step() is False
        assert sim.now == 1.0


# ----------------------------------------------------------------------
# pop_until / peek_time — inspection without execution
# ----------------------------------------------------------------------


class TestPopPeek:
    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(3.0, lambda: None)
        h = sim.schedule(1.0, lambda: None)
        assert sim.peek_time() == 1.0
        sim.cancel(h)
        # peek discards the dead head and reports the next live event
        assert sim.peek_time() == 3.0

    def test_pop_until_returns_payload(self):
        sim = Simulator()
        fn = lambda tag: tag  # noqa: E731
        sim.schedule(1.0, fn, "a")
        popped = sim.pop_until()
        assert popped is not None
        t, popped_fn, args = popped
        assert t == 1.0
        assert popped_fn is fn
        assert args == ("a",)

    def test_pop_until_respects_limit(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        assert sim.pop_until(limit=2.0) is not None
        assert sim.pop_until(limit=2.0) is None  # next event is beyond
        assert sim.pending == 1

    def test_pop_until_has_no_side_effects(self):
        # Popping must not advance the clock, fire the trace hook, or
        # count as execution — it only removes the event.
        sim = Simulator()
        traced = []
        sim.trace = lambda t, fn, args: traced.append(t)
        sim.schedule(2.0, lambda: None)
        sim.pop_until()
        assert sim.now == 0.0
        assert sim.events_executed == 0
        assert traced == []
        assert sim.pending == 0

    def test_pop_until_skips_cancelled(self):
        sim = Simulator()
        dead = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(dead)
        popped = sim.pop_until()
        assert popped is not None and popped[0] == 2.0

    def test_pop_until_batching_drains_in_order(self):
        sim = Simulator()
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, lambda: None)
        times = []
        while True:
            popped = sim.pop_until(limit=10.0)
            if popped is None:
                break
            times.append(popped[0])
        assert times == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# reentrancy — scheduling and cancelling from inside handlers
# ----------------------------------------------------------------------


class TestReentrancy:
    def test_reschedule_from_inside_handler(self):
        # The classic self-perpetuating "ping": each firing schedules
        # the next.  Exercises the schedule-while-running hot path.
        sim = Simulator()
        log = []

        def ping(i):
            log.append((sim.now, i))
            if i < 5:
                sim.schedule(1.0, ping, i + 1)

        sim.schedule(1.0, ping, 0)
        sim.run()
        assert log == [(float(i + 1), i) for i in range(6)]
        assert sim.events_executed == 6

    def test_handler_schedules_same_timestamp(self):
        # An event scheduled at delay 0 from inside a handler fires in
        # the same run, after already-scheduled same-time events.
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.schedule(0.0, log.append, "c")))
        sim.schedule(1.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_nested_run_is_rejected_or_consistent(self):
        # The contract does not require nested run() support, but a
        # handler draining the queue via run() must not corrupt state:
        # afterwards every event has fired exactly once.
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "late")

        def nested():
            log.append("outer")
            try:
                sim.run()
            except SimulationError:
                pass

        sim.schedule(1.0, nested)
        sim.run()
        assert sorted(log) == ["late", "outer"]
        assert sim.pending == 0

    def test_cancel_storm_from_handler(self):
        # A handler cancelling a large batch (possibly triggering
        # compaction mid-run) must not derail delivery of survivors.
        sim = Simulator()
        log = []
        victims = [sim.schedule(5.0 + i * 0.1, log.append, i) for i in range(200)]
        survivors = [sim.schedule(40.0 + i, log.append, 1000 + i) for i in range(5)]

        def massacre():
            for h in victims:
                sim.cancel(h)

        sim.schedule(1.0, massacre)
        sim.run()
        assert log == [1000 + i for i in range(5)]
        assert sim.pending == 0


# ----------------------------------------------------------------------
# accounting: events_executed, pending, trace
# ----------------------------------------------------------------------


class TestAccounting:
    def test_events_executed_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        for h in handles[::2]:
            sim.cancel(h)
        sim.run()
        assert sim.events_executed == 3

    def test_pending_tracks_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending == 4
        sim.cancel(handles[0])
        assert sim.pending == 3
        sim.run(max_events=1)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_trace_sees_each_executed_event(self):
        sim = Simulator()
        traced = []
        sim.trace = lambda t, fn, args: traced.append((t, args))
        dead = sim.schedule(1.5, lambda tag: None, "dead")
        sim.schedule(1.0, lambda tag: None, "a")
        sim.schedule(2.0, lambda tag: None, "b")
        sim.cancel(dead)
        sim.run()
        assert traced == [(1.0, ("a",)), (2.0, ("b",))]

    def test_trace_installed_mid_run(self):
        sim = Simulator()
        traced = []
        sim.schedule(1.0, lambda: setattr(sim, "trace", lambda t, fn, args: traced.append(t)))
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert traced == [2.0]

    def test_start_time_respected(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        log = []
        sim.schedule(2.5, lambda: log.append(sim.now))
        sim.run()
        assert log == [102.5]


# ----------------------------------------------------------------------
# replay determinism on random programs
# ----------------------------------------------------------------------

# Delays are drawn from a small pool so same-timestamp ties are common —
# tie-breaking is exactly where an ordering bug would hide.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_spawner"), _DELAYS, _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_budget"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("run_all")),
    st.tuples(st.just("step")),
    st.tuples(st.just("pop"), st.one_of(st.none(), _DELAYS)),
    st.tuples(st.just("peek")),
)


def run_program(program) -> list:
    """Execute ``program`` on a fresh kernel; return its observable trace:
    the executed event stream, plus the clock, ``events_executed`` and
    ``pending`` after every operation."""
    sim = Simulator()
    trace: list = []
    handles: list = []
    tag_counter = [0]

    def fire(tag):
        trace.append(("fire", sim.now, tag))

    def spawn(tag, child_delay):
        # reentrant: a handler scheduling more work mid-run
        trace.append(("spawn", sim.now, tag))
        tag_counter[0] += 1
        handles.append(sim.schedule(child_delay, fire, tag_counter[0]))

    for op in program:
        kind = op[0]
        try:
            if kind == "schedule":
                tag_counter[0] += 1
                handles.append(sim.schedule(op[1], fire, tag_counter[0]))
            elif kind == "schedule_spawner":
                tag_counter[0] += 1
                handles.append(sim.schedule(op[1], spawn, tag_counter[0], op[2]))
            elif kind == "schedule_at":
                tag_counter[0] += 1
                handles.append(sim.schedule_at(sim.now + op[1], fire, tag_counter[0]))
            elif kind == "cancel":
                if handles:
                    sim.cancel(handles[op[1] % len(handles)])
            elif kind == "run_until":
                sim.run(until=sim.now + op[1])
            elif kind == "run_budget":
                sim.run(max_events=op[1])
            elif kind == "run_all":
                sim.run()
            elif kind == "step":
                trace.append(("step", sim.step()))
            elif kind == "pop":
                limit = None if op[1] is None else sim.now + op[1]
                popped = sim.pop_until(limit)
                trace.append(
                    ("pop", None if popped is None else (popped[0], popped[2]))
                )
            elif kind == "peek":
                trace.append(("peek", sim.peek_time()))
        except SimulationError as exc:
            trace.append(("error", kind, type(exc).__name__))
        trace.append(("state", sim.now, sim.events_executed, sim.pending))
    # drain whatever is left so the full event stream is compared
    sim.run()
    trace.append(("final", sim.now, sim.events_executed, sim.pending))
    return trace


@settings(max_examples=20, deadline=None)
@given(program=st.lists(_OP, min_size=1, max_size=40))
def test_replay_is_deterministic(program):
    # The same program run twice must be identical — rules out hidden
    # global state inside the kernel.
    assert run_program(program) == run_program(program)
