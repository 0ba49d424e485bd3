"""Tests for statistics collectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Tally, TimeWeighted


class TestCounter:
    def test_starts_at_zero(self):
        assert int(Counter("c")) == 0

    def test_increment(self):
        c = Counter("c")
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestTally:
    def test_empty_statistics_are_nan(self):
        t = Tally("t")
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)
        assert math.isnan(t.std)

    def test_single_observation(self):
        t = Tally("t")
        t.record(3.0)
        assert t.mean == 3.0
        assert t.min == 3.0 and t.max == 3.0
        assert math.isnan(t.variance)

    def test_single_sample_variance_and_std_are_nan(self):
        t = Tally("t")
        t.record(42.0)
        assert math.isnan(t.variance)
        assert math.isnan(t.std)
        assert t.count == 1 and t.total == 42.0

    def test_identical_samples_have_zero_variance(self):
        t = Tally("t")
        for _ in range(5):
            t.record(3.0)
        assert t.variance == 0.0
        assert t.std == 0.0

    def test_known_values(self):
        t = Tally("t")
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            t.record(x)
        assert t.mean == pytest.approx(5.0)
        assert t.variance == pytest.approx(32.0 / 7.0)
        assert t.total == pytest.approx(40.0)
        assert t.count == 8

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        t = Tally("t")
        for x in xs:
            t.record(x)
        assert t.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert t.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-7, abs=1e-5)
        assert t.min == min(xs)
        assert t.max == max(xs)


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted("q", time=0.0, value=3.0)
        assert tw.mean(10.0) == 3.0

    def test_step_signal(self):
        tw = TimeWeighted("q", time=0.0, value=0.0)
        tw.update(4.0, 2.0)   # 0 on [0,4), 2 on [4,10)
        assert tw.mean(10.0) == pytest.approx((0 * 4 + 2 * 6) / 10)
        assert tw.current == 2.0

    def test_multiple_steps(self):
        tw = TimeWeighted("q")
        tw.update(1.0, 1.0)
        tw.update(2.0, 5.0)
        tw.update(3.0, 0.0)
        # areas: 0*1 + 1*1 + 5*1 + 0*(t-3)
        assert tw.mean(4.0) == pytest.approx(6.0 / 4.0)

    def test_zero_span_returns_current(self):
        tw = TimeWeighted("q", time=5.0, value=7.0)
        assert tw.mean(5.0) == 7.0

    def test_time_must_be_nondecreasing(self):
        tw = TimeWeighted("q", time=5.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 1.0)

    def test_out_of_order_after_updates(self):
        tw = TimeWeighted("q")
        tw.update(3.0, 1.0)
        tw.update(7.0, 2.0)
        with pytest.raises(ValueError):
            tw.update(6.999, 0.0)
        # the rejected update must not have corrupted the integral
        assert tw.mean(10.0) == pytest.approx((1.0 * 4 + 2.0 * 3) / 10)

    def test_zero_duration_interval_contributes_nothing(self):
        tw = TimeWeighted("q")
        tw.update(2.0, 100.0)
        tw.update(2.0, 100.0)  # zero-duration re-assertion of the value
        tw.update(2.0, 1.0)
        assert tw.mean(4.0) == pytest.approx((0.0 * 2 + 1.0 * 2) / 4)

    def test_mean_before_start_returns_current(self):
        tw = TimeWeighted("q", time=5.0, value=2.0)
        assert tw.mean(3.0) == 2.0

    def test_repeated_updates_at_same_instant(self):
        tw = TimeWeighted("q")
        tw.update(1.0, 3.0)
        tw.update(1.0, 9.0)  # instantaneous change; 3.0 held for zero time
        assert tw.mean(2.0) == pytest.approx(9.0 / 2.0)
