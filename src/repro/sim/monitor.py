"""Statistics collection for simulation runs.

Three collector flavours cover everything the experiments need:

* :class:`Counter` — monotone event counts (jobs submitted, messages sent).
* :class:`Tally` — sample statistics of observations (response times),
  with numerically stable one-pass mean/variance (Welford).
* :class:`TimeWeighted` — time-averaged piecewise-constant signals
  (queue lengths, resource utilization).

These mirror the instrumentation a Parsec model would carry, and they are
what :class:`repro.experiments.runner` aggregates into ``RunMetrics``.
"""

from __future__ import annotations

import math

__all__ = ["Counter", "Tally", "TimeWeighted"]


class Counter:
    """A monotone nonnegative event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, by: int = 1) -> None:
        """Add ``by`` (must be nonnegative) to the counter."""
        if by < 0:
            raise ValueError("Counter.increment requires a nonnegative amount")
        self.value += by

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Tally:
    """One-pass sample statistics over recorded observations.

    Uses Welford's algorithm so mean and variance are stable even for
    millions of observations with large magnitudes.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def record(self, x: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean, ``nan`` if no observations were recorded."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` for fewer than 2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tally({self.name}: n={self.count}, mean={self.mean:.4g})"


class TimeWeighted:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the value in effect
    between updates is integrated against elapsed simulated time.
    """

    __slots__ = ("name", "_last_time", "_last_value", "_area", "_start")

    def __init__(self, name: str, time: float = 0.0, value: float = 0.0) -> None:
        self.name = name
        self._start = time
        self._last_time = time
        self._last_value = value
        self._area = 0.0

    def update(self, time: float, value: float) -> None:
        """Record that the signal takes ``value`` from ``time`` onward."""
        if time < self._last_time:
            raise ValueError("TimeWeighted.update times must be nondecreasing")
        self._area += self._last_value * (time - self._last_time)
        self._last_time = time
        self._last_value = value

    def mean(self, now: float) -> float:
        """Time-average of the signal over ``[start, now]``."""
        span = now - self._start
        if span <= 0.0:
            return self._last_value
        area = self._area + self._last_value * (now - self._last_time)
        return area / span

    @property
    def current(self) -> float:
        """The most recently recorded signal value."""
        return self._last_value
