"""Tests for the StatusTable (the manager's stale view)."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import StatusTable


class TestStatusTable:
    def test_initial_loads_zero(self):
        t = StatusTable([1, 2, 3])
        assert t.loads() == {1: 0.0, 2: 0.0, 3: 0.0}
        assert len(t) == 3
        assert 2 in t and 9 not in t

    def test_record_and_read(self):
        t = StatusTable([1, 2])
        t.record(1, 4.0, time=10.0)
        assert t.load_of(1) == 4.0
        assert t.load_of(2) == 0.0

    def test_stale_update_ignored(self):
        t = StatusTable([1])
        t.record(1, 5.0, time=10.0)
        t.record(1, 2.0, time=8.0)  # older observation arrives late
        assert t.load_of(1) == 5.0

    def test_equal_time_update_applies(self):
        t = StatusTable([1])
        t.record(1, 5.0, time=10.0)
        t.record(1, 2.0, time=10.0)
        assert t.load_of(1) == 2.0

    def test_untracked_resource_rejected(self):
        t = StatusTable([1])
        with pytest.raises(KeyError):
            t.record(9, 1.0, time=0.0)
        with pytest.raises(KeyError):
            t.bump(9)

    def test_bump_and_floor(self):
        t = StatusTable([1])
        t.bump(1, +1.0)
        t.bump(1, +1.0)
        assert t.load_of(1) == 2.0
        t.bump(1, -5.0)
        assert t.load_of(1) == 0.0  # floored at zero

    def test_least_loaded_picks_minimum(self):
        t = StatusTable([1, 2, 3])
        t.record(1, 3.0, 0.0)
        t.record(2, 1.0, 0.0)
        t.record(3, 2.0, 0.0)
        assert t.least_loaded() == (2, 1.0)

    def test_least_loaded_tie_breaks_lowest_id(self):
        t = StatusTable([5, 2, 8])
        assert t.least_loaded() == (2, 0.0)

    def test_least_loaded_empty(self):
        rid, load = StatusTable([]).least_loaded()
        assert rid is None and math.isinf(load)

    def test_average_and_min(self):
        t = StatusTable([1, 2])
        t.record(1, 4.0, 0.0)
        assert t.average_load() == 2.0
        assert t.min_load() == 0.0

    def test_average_empty_is_nan(self):
        assert math.isnan(StatusTable([]).average_load())


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),       # resource
            st.floats(min_value=0, max_value=100, allow_nan=False),  # load
            st.floats(min_value=0, max_value=1000, allow_nan=False),  # time
        ),
        max_size=50,
    )
)
def test_table_reflects_latest_observation(updates):
    """After any update sequence, each tracked load equals the
    max-timestamp observation for that resource (last-writer-wins with
    out-of-order drops)."""
    t = StatusTable(range(5))
    latest = {}
    for rid, load, time in updates:
        t.record(rid, load, time)
        if rid not in latest or time >= latest[rid][0]:
            latest[rid] = (time, load)
    for rid in range(5):
        expected = latest.get(rid, (None, 0.0))[1]
        assert t.load_of(rid) == expected


class PushAlwaysTable:
    """Reference: the table as it was before ``record`` skipped repeated
    loads — every accepted update pushes a heap entry."""

    def __init__(self, resource_ids):
        self._load = {r: 0.0 for r in resource_ids}
        self._stamp = {r: -math.inf for r in self._load}
        self._dead = set()
        self._heap = [(0.0, r) for r in sorted(self._load)]

    def record(self, resource_id, load, time):
        if time >= self._stamp[resource_id]:
            self._load[resource_id] = load
            self._stamp[resource_id] = time
            self._dead.discard(resource_id)
            heapq.heappush(self._heap, (load, resource_id))
            self._maybe_compact()

    def bump(self, resource_id, by=1.0):
        load = max(0.0, self._load[resource_id] + by)
        self._load[resource_id] = load
        heapq.heappush(self._heap, (load, resource_id))
        self._maybe_compact()

    def mark_dead(self, resource_id):
        self._dead.add(resource_id)

    def _maybe_compact(self):
        if len(self._heap) > max(64, 8 * len(self._load)):
            self._heap = [(v, r) for r, v in self._load.items() if r not in self._dead]
            heapq.heapify(self._heap)

    def least_loaded(self):
        while self._heap:
            v, r = self._heap[0]
            if r in self._dead or self._load[r] != v:
                heapq.heappop(self._heap)
                continue
            return r, v
        return None, math.inf


_ops = st.one_of(
    st.tuples(
        st.just("record"),
        st.integers(0, 5),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.integers(0, 40),
    ),
    st.tuples(st.just("bump"), st.integers(0, 5), st.sampled_from([1.0, -1.0, 2.0])),
    st.tuples(st.just("dead"), st.integers(0, 5)),
    st.tuples(st.just("least"),),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), ops=st.lists(_ops, max_size=300))
def test_skipped_pushes_keep_least_loaded(n, ops):
    """Skipping the heap push for a live resource's repeated load never
    changes a ``least_loaded`` answer, across deaths and revivals."""
    table, ref = StatusTable(range(n)), PushAlwaysTable(range(n))
    now = 0
    for op in ops:
        kind, args = op[0], op[1:]
        if kind != "least" and args[0] >= n:
            continue
        if kind == "record":
            rid, load, dt = args
            now += dt - 10  # some updates arrive out of order
            table.record(rid, load, now)
            ref.record(rid, load, now)
        elif kind == "bump":
            table.bump(*args)
            ref.bump(*args)
        elif kind == "dead":
            table.mark_dead(args[0])
            ref.mark_dead(args[0])
        assert table.least_loaded() == ref.least_loaded()
        assert table.loads() == ref._load
        assert table.alive_count == n - len(ref._dead)
