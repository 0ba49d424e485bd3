"""Time-resolved streams of the paper's quantities: F/G/H/E as *curves*.

Everything the repo measured before this module is an end-of-run total —
one F, one G, one H per (design, scale).  The isoefficiency controller
(ROADMAP item 5) and fluid-mode validation (item 2) both need the
*trajectory*: how efficiency evolves inside a run, when the system
reaches steady state, and what continuous monitoring itself costs.
This module supplies that sensor layer in four pieces:

* :class:`MonitorPlan` — the frozen, hashable description of a run's
  monitoring configuration (windowed series on/off, in-sim probe period,
  per-probe charge rate).  It rides on ``SimulationConfig`` like the
  :class:`~repro.faults.plan.FaultPlan` does; a **passive** plan
  (``charge_rate == 0``) observes without perturbing, so the run-cache
  key deliberately excludes it, while an **active** plan charges
  ``g.monitor`` and is hashed like any semantic field.
* :class:`WindowedSeries` — bounded per-window accumulation in sim time.
  Fixed window count; on overflow the window width *doubles* and
  adjacent buckets merge pairwise (sums add, sample counts add), so
  memory is bounded like a flight-recorder ring but nothing is lost in
  aggregate — the total over all windows is invariant under decimation.
* :class:`RunSeriesRecorder` — hooks ``CostLedger.observer`` (chaining a
  pre-existing observer, exactly like the flight recorder) to bucket
  every charge into per-window F/G/H totals plus per-component G detail.
  The disabled path is the ledger's existing ``observer is None`` test:
  runs without a plan pay nothing on the kernel's hot path.
* :class:`ProbeSampler` — an in-sim sampling loop (configurable sim-time
  period) reading scheduler queue depths and in-flight dispatch counts,
  estimator queue depths and staleness/heartbeat gaps, resource
  occupancy, and dispatch latency.  Probes are pure reads — no RNG, no
  state mutation — so a zero-charge-rate sampler leaves every F/G/H
  result bit-for-bit unchanged; with ``charge_rate > 0`` each sweep
  charges ``g.monitor`` per probed entity, making the monitoring
  overhead/accuracy tradeoff (Lahmadi et al.) a first-class experiment.

On top sit the stream-analysis helpers: :func:`efficiency_curve`,
MSER-style :func:`detect_warmup` / :func:`steady_state` (automatic
warmup truncation), and :func:`merge_series` (aligning per-run payloads
from pool workers into study-level curves).  All of them operate on the
plain-JSON payload shape (:meth:`RunSeriesRecorder.payload`) that rides
inside ``RunMetrics`` through pickling, the run cache, and study
manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_WINDOW_COUNT",
    "ENV_SERIES",
    "ENV_SERIES_CHARGE_RATE",
    "ENV_SERIES_PROBE_INTERVAL",
    "ENV_SERIES_WINDOW",
    "MonitorPlan",
    "ProbeSampler",
    "RunSeriesRecorder",
    "WindowedSeries",
    "detect_warmup",
    "efficiency_curve",
    "merge_series",
    "monitor_plan_from_jsonable",
    "monitor_plan_to_jsonable",
    "resolve_monitor_plan",
    "steady_state",
]

#: series payload schema version (bump on shape changes)
SERIES_VERSION = 1

#: default number of windows the horizon is divided into when the plan
#: does not fix a width (the drain then adds ~half as many more)
DEFAULT_WINDOW_COUNT = 64

#: environment knobs (flag > env > default, like every other REPRO_* knob)
ENV_SERIES = "REPRO_SERIES"
ENV_SERIES_WINDOW = "REPRO_SERIES_WINDOW"
ENV_SERIES_PROBE_INTERVAL = "REPRO_SERIES_PROBE_INTERVAL"
ENV_SERIES_CHARGE_RATE = "REPRO_SERIES_CHARGE_RATE"

#: attribution source tag for probe charges (component ``monitor`` —
#: a cross-cutting component like ``faults``, so ``repro attrib`` shows
#: monitoring cost as its own G column)
PROBE_SOURCE = ("monitor", "probes", "sample")

#: ledger category probe work is charged to
MONITOR_CATEGORY = "g.monitor"


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonitorPlan:
    """A run's monitoring configuration (frozen, hashable, JSON-able).

    Attributes
    ----------
    series:
        Record windowed F/G/H streams (the ledger hook).
    window:
        Window width in sim time units; ``0`` derives
        ``horizon / DEFAULT_WINDOW_COUNT``.
    max_windows:
        Memory bound: when a timestamp lands past this many windows the
        width doubles and buckets merge pairwise (lossless in aggregate).
    probe_interval:
        Sim-time period of the in-sim probe sweep; ``0`` disables
        probes.
    charge_rate:
        Time units charged to ``g.monitor`` **per probed entity per
        sweep**.  ``0`` makes probing free (pure observation, results
        bit-identical to probes off); ``> 0`` makes monitoring a real
        overhead the efficiency model sees — and makes the plan part of
        the run-cache key.
    """

    series: bool = False
    window: float = 0.0
    max_windows: int = 256
    probe_interval: float = 0.0
    charge_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (self.window >= 0.0) or self.window == math.inf:
            raise ValueError("window must be finite and >= 0")
        if self.max_windows < 8:
            raise ValueError("max_windows must be >= 8")
        if not (self.probe_interval >= 0.0) or self.probe_interval == math.inf:
            raise ValueError("probe_interval must be finite and >= 0")
        if not (self.charge_rate >= 0.0) or self.charge_rate == math.inf:
            raise ValueError("charge_rate must be finite and >= 0")

    @property
    def is_enabled(self) -> bool:
        """Whether the run records anything at all."""
        return self.series or self.probe_interval > 0.0

    @property
    def is_active(self) -> bool:
        """Whether the plan *changes what the run computes*.

        Only probes with a nonzero charge rate do: they add ``g.monitor``
        charges, so G (and E) differ from an unmonitored run.  Passive
        plans observe without perturbing — the run cache treats them as
        provenance (see ``parallel.hashing.canonical_config``).
        """
        return self.probe_interval > 0.0 and self.charge_rate > 0.0

    def effective_window(self, horizon: float) -> float:
        """The window width actually applied for a given horizon."""
        return self.window if self.window > 0.0 else horizon / DEFAULT_WINDOW_COUNT


def monitor_plan_to_jsonable(plan: MonitorPlan) -> Dict[str, Any]:
    """Flatten a plan to plain JSON types (manifests, CLI round trips)."""
    return {
        "series": bool(plan.series),
        "window": float(plan.window),
        "max_windows": int(plan.max_windows),
        "probe_interval": float(plan.probe_interval),
        "charge_rate": float(plan.charge_rate),
    }


def monitor_plan_from_jsonable(payload: Dict[str, Any]) -> MonitorPlan:
    """Rebuild a plan from :func:`monitor_plan_to_jsonable` output."""
    return MonitorPlan(
        series=bool(payload.get("series", False)),
        window=float(payload.get("window", 0.0)),
        max_windows=int(payload.get("max_windows", 256)),
        probe_interval=float(payload.get("probe_interval", 0.0)),
        charge_rate=float(payload.get("charge_rate", 0.0)),
    )


def resolve_monitor_plan(
    series: Optional[bool] = None,
    window: Optional[float] = None,
    probe_interval: Optional[float] = None,
    charge_rate: Optional[float] = None,
    max_windows: Optional[int] = None,
) -> MonitorPlan:
    """Build a plan from explicit values with environment fallbacks.

    Precedence per field: explicit argument > ``REPRO_SERIES*``
    environment knob > the plan default.  ``REPRO_SERIES=1`` alone
    enables windowed streams with derived defaults.
    """
    from ..envknobs import get_bool, get_float

    series = get_bool(ENV_SERIES, override=series, default=False)
    window = get_float(ENV_SERIES_WINDOW, override=window)
    probe_interval = get_float(ENV_SERIES_PROBE_INTERVAL, override=probe_interval)
    charge_rate = get_float(ENV_SERIES_CHARGE_RATE, override=charge_rate)
    kwargs: Dict[str, Any] = {"series": bool(series)}
    if window is not None:
        kwargs["window"] = float(window)
    if probe_interval is not None:
        kwargs["probe_interval"] = float(probe_interval)
    if charge_rate is not None:
        kwargs["charge_rate"] = float(charge_rate)
    if max_windows is not None:
        kwargs["max_windows"] = int(max_windows)
    return MonitorPlan(**kwargs)


# ---------------------------------------------------------------------------
# Bounded windowed accumulation
# ---------------------------------------------------------------------------

class WindowedSeries:
    """Per-window accumulation with a hard memory bound.

    Two kinds of keys coexist:

    * **sums** (:meth:`add`) — additive quantities (ledger charges);
      each window holds the total charged inside it.
    * **samples** (:meth:`observe`) — gauge readings (queue depths);
      each window holds ``(sum, count)`` so the per-window mean survives
      decimation as a correctly weighted mean.

    When a timestamp lands at or past ``max_windows``, the window width
    doubles and adjacent buckets merge pairwise.  Sums add and counts
    add, so **every aggregate over the full series is invariant** —
    only the resolution halves.
    """

    __slots__ = ("width", "max_windows", "windows", "_sums", "_ssum", "_scount")

    def __init__(self, width: float, max_windows: int = 256) -> None:
        if not (width > 0.0) or width == math.inf:
            raise ValueError("window width must be finite and positive")
        if max_windows < 8:
            raise ValueError("max_windows must be >= 8")
        self.width = float(width)
        self.max_windows = int(max_windows)
        #: high-water window count (index of the last touched window + 1)
        self.windows = 0
        self._sums: Dict[str, List[float]] = {}
        self._ssum: Dict[str, List[float]] = {}
        self._scount: Dict[str, List[int]] = {}

    # -- internals -------------------------------------------------------
    def _index(self, time: float) -> int:
        # `not (time >= 0)` also rejects NaN; inf would make the
        # width-doubling below diverge, so both are hard errors rather
        # than silent bucket corruption.
        if not (time >= 0.0) or time == math.inf:
            raise ValueError("window time must be finite and nonnegative")
        i = int(time / self.width)
        if i >= self.max_windows:
            # One-shot decimation: at extreme horizons (1e5–1e6-scale
            # runs land timestamps many doublings past the bound) the
            # per-doubling loop would rewrite every bucket array once
            # per doubling.  Compute the needed power-of-two factor on
            # scalars first, then merge every array in a single pass.
            factor = 2
            while int(time / (self.width * factor)) >= self.max_windows:
                factor *= 2
            if not math.isfinite(self.width * factor):
                raise ValueError(
                    f"window time {time!r} would overflow the window width"
                )
            self._decimate(factor)
            i = int(time / self.width)
        if i >= self.windows:
            self.windows = i + 1
        return i

    def _decimate(self, factor: int = 2) -> None:
        """Widen by ``factor`` (a power of two); merge bucket groups.

        Lossless in aggregate: sums add and counts add, exactly as in
        the original pairwise rule (``factor=2`` reproduces it
        bit-for-bit — left-to-right addition from 0.0 equals ``a + b``).
        """
        self.width *= factor
        for store in (self._sums, self._ssum):
            for key, arr in store.items():
                store[key] = [
                    sum(arr[j : j + factor], 0.0)
                    for j in range(0, len(arr), factor)
                ]
        for key, arr in self._scount.items():
            self._scount[key] = [
                sum(arr[j : j + factor], 0)
                for j in range(0, len(arr), factor)
            ]
        self.windows = (self.windows + factor - 1) // factor

    @staticmethod
    def _grow(arr: list, i: int, zero) -> None:
        if len(arr) <= i:
            arr.extend([zero] * (i + 1 - len(arr)))

    # -- recording -------------------------------------------------------
    def add(self, time: float, key: str, amount: float) -> None:
        """Accumulate an additive quantity into ``time``'s window."""
        i = self._index(time)
        arr = self._sums.get(key)
        if arr is None:
            arr = self._sums[key] = []
        self._grow(arr, i, 0.0)
        arr[i] += amount

    def observe(self, time: float, key: str, value: float) -> None:
        """Record one gauge reading into ``time``'s window."""
        i = self._index(time)
        ssum = self._ssum.get(key)
        if ssum is None:
            ssum = self._ssum[key] = []
            self._scount[key] = []
        scount = self._scount[key]
        self._grow(ssum, i, 0.0)
        self._grow(scount, i, 0)
        ssum[i] += value
        scount[i] += 1

    # -- reading ---------------------------------------------------------
    def sums(self, key: str) -> List[float]:
        """Per-window totals for a sum key, padded to ``windows``."""
        arr = self._sums.get(key, [])
        return arr + [0.0] * (self.windows - len(arr))

    def means(self, key: str) -> List[float]:
        """Per-window sample means (``nan`` where nothing was observed)."""
        ssum = self._ssum.get(key, [])
        scount = self._scount.get(key, [])
        out = []
        for i in range(self.windows):
            c = scount[i] if i < len(scount) else 0
            out.append(ssum[i] / c if c else math.nan)
        return out

    def total(self, key: str) -> float:
        """The key's aggregate over every window (decimation-invariant)."""
        return math.fsum(self._sums.get(key, ()))

    def to_jsonable(self) -> Dict[str, Any]:
        """The series as the plain-JSON payload shape (see module doc)."""
        n = self.windows
        return {
            "v": SERIES_VERSION,
            "width": self.width,
            "windows": n,
            "sums": {
                key: arr + [0.0] * (n - len(arr))
                for key, arr in sorted(self._sums.items())
            },
            "samples": {
                key: {
                    "sum": self._ssum[key] + [0.0] * (n - len(self._ssum[key])),
                    "count": self._scount[key]
                    + [0] * (n - len(self._scount[key])),
                }
                for key in sorted(self._ssum)
            },
        }


# ---------------------------------------------------------------------------
# The run-level recorder (ledger hook) and probe sampler
# ---------------------------------------------------------------------------

class RunSeriesRecorder:
    """Buckets every ledger charge into windowed F/G/H streams.

    Keys recorded: ``F`` / ``G`` / ``H`` aggregate streams plus
    ``g:<component>`` per-component G detail (component = the first
    element of the charge's attribution source; untagged G charges fall
    under ``g:untagged``).  Probe gauges land in the same series via
    :class:`ProbeSampler`.
    """

    __slots__ = ("plan", "series", "_sim")

    def __init__(self, plan: MonitorPlan, horizon: float) -> None:
        self.plan = plan
        self.series = WindowedSeries(
            plan.effective_window(horizon), plan.max_windows
        )
        self._sim = None

    def observe_ledger(self, sim: Any, ledger: Any) -> None:
        """Install the windowing observer, chaining any existing one.

        Same contract as the flight recorder's ``observe_ledger``: a
        pre-existing observer keeps seeing every charge.  The hot path
        of unmonitored runs is untouched — their ledger keeps
        ``observer is None``.
        """
        self._sim = sim
        series = self.series
        previous = ledger.observer

        def observe(category: str, amount: float, source) -> None:
            t = sim.now
            prefix = category[0]
            series.add(t, "F" if prefix == "f" else "G" if prefix == "g" else "H", amount)
            if prefix == "g":
                comp = source[0] if source is not None else "untagged"
                series.add(t, "g:" + comp, amount)

        if previous is None:
            ledger.observer = observe
        else:
            def chained(category: str, amount: float, source) -> None:
                observe(category, amount, source)
                previous(category, amount, source)

            ledger.observer = chained

    def payload(self) -> Dict[str, Any]:
        """The run's series as the JSON shape carried by ``RunMetrics``."""
        return self.series.to_jsonable()


class ProbeSampler:
    """Periodic in-sim probe sweep over the managed system.

    Every ``plan.probe_interval`` sim-time units the sampler reads, per
    sweep:

    * ``probe:sched_queue`` — total scheduler message-queue depth;
    * ``probe:sched_inflight`` — dispatches not yet confirmed complete;
    * ``probe:est_queue`` — total estimator message-queue depth;
    * ``probe:staleness`` — mean status-table staleness across
      schedulers (how old the placement view is);
    * ``probe:heartbeat_gap`` — the widest heartbeat silence any
      watching estimator currently sees (fault-detection latency);
    * ``probe:running`` — jobs in service or queued at resources;
    * ``probe:dispatch_latency`` — mean queue-to-service latency of the
      jobs currently running.

    Reads only — no RNG draws, no state mutation — so sampling cannot
    perturb the simulation.  With ``charge_rate > 0`` each sweep charges
    ``charge_rate`` per probed entity to ``g.monitor`` (the zero-rate
    path never calls ``charge``, keeping the attribution dict — and the
    byte-identity contract — untouched, mirroring the message server's
    ``st > 0.0`` guard).
    """

    __slots__ = (
        "sim",
        "plan",
        "recorder",
        "ledger",
        "schedulers",
        "estimators",
        "resources",
        "fluid",
        "_end",
        "_charge",
        "samples",
    )

    def __init__(
        self,
        sim: Any,
        plan: MonitorPlan,
        recorder: RunSeriesRecorder,
        ledger: Any,
        schedulers: Sequence[Any],
        estimators: Sequence[Any],
        resources: Sequence[Any],
        fluid: Optional[Any] = None,
    ) -> None:
        if plan.probe_interval <= 0.0:
            raise ValueError("ProbeSampler needs plan.probe_interval > 0")
        self.sim = sim
        self.plan = plan
        self.recorder = recorder
        self.ledger = ledger
        self.schedulers = list(schedulers)
        self.estimators = list(estimators)
        self.resources = list(resources)
        #: the run's FluidStatusPlane, if the traffic mode is fluid — in
        #: which case sweeps read its O(levels) aggregate taps instead
        #: of touching per-resource/per-leaf state (a 1e5-resource pool
        #: must not pay an O(k) walk per probe).
        self.fluid = fluid
        self._end = math.inf
        # precomputed per-sweep charge: rate x probed entities; in
        # fluid mode the probe reads aggregates, so the charge scales
        # with what is actually read (schedulers, estimators, and the
        # aggregation levels), not with the pool size.
        if fluid is None:
            n_entities = (
                len(self.schedulers) + len(self.estimators) + len(self.resources)
            )
        else:
            n_entities = (
                len(self.schedulers)
                + len(self.estimators)
                + fluid.aggregate_depth
                + 1
            )
        self._charge = plan.charge_rate * n_entities
        #: sweeps executed (diagnostics)
        self.samples = 0

    def arm(self, end: float) -> None:
        """Start sweeping; stop rescheduling once ``end`` is passed."""
        self._end = end
        self.sim.schedule(self.plan.probe_interval, self._sweep)

    def _sweep(self) -> None:
        sim = self.sim
        now = sim.now
        series = self.recorder.series
        self.samples += 1
        fluid = self.fluid

        sched_queue = 0
        inflight = 0
        stale_sum = 0.0
        stale_n = 0
        for sched in self.schedulers:
            sched_queue += sched.queue_length
            inflight += sched.inflight_count
            if fluid is None:
                # mean_staleness walks the table's entries — O(cluster
                # size) per scheduler, an O(k) sweep overall.  Fluid
                # mode refreshes tables synchronously on the flush
                # grid, so staleness is bounded by the flush interval
                # and the walk is skipped rather than paid.
                staleness = (
                    sched.table.mean_staleness(now)
                    if sched.table is not None
                    else math.nan
                )
                if staleness == staleness:  # NaN-safe
                    stale_sum += staleness
                    stale_n += 1
        series.observe(now, "probe:sched_queue", float(sched_queue))
        series.observe(now, "probe:sched_inflight", float(inflight))
        if stale_n:
            series.observe(now, "probe:staleness", stale_sum / stale_n)

        est_queue = 0
        for est in self.estimators:
            est_queue += est.queue_length
        series.observe(now, "probe:est_queue", float(est_queue))
        if fluid is None:
            gap = 0.0
            for est in self.estimators:
                g = est.heartbeat_gap()
                if g == g and g > gap:
                    gap = g
            series.observe(now, "probe:heartbeat_gap", gap)
        else:
            g = fluid.heartbeat_gap()
            series.observe(now, "probe:heartbeat_gap", g if g == g else 0.0)

        if fluid is None:
            running = 0
            latency_sum = 0.0
            latency_n = 0
            for res in self.resources:
                running += res.load
                for job in res.running_jobs():
                    if job.start_service is not None:
                        latency_sum += job.start_service - job.spec.arrival_time
                        latency_n += 1
            series.observe(now, "probe:running", float(running))
            if latency_n:
                series.observe(
                    now, "probe:dispatch_latency", latency_sum / latency_n
                )
        else:
            # Aggregate taps only: total load is maintained O(1) by the
            # plane, pending updates and tree occupancy are O(levels) /
            # O(estimators) — never a per-resource walk.
            series.observe(now, "probe:running", float(fluid.total_load))
            series.observe(now, "probe:fluid_pending", float(fluid.pending_updates))
            series.observe(now, "probe:agg_depth", float(fluid.aggregate_depth))
            series.observe(now, "probe:agg_occupancy", fluid.aggregate_occupancy())

        # Monitoring that costs something is RMS overhead the efficiency
        # model must see; free monitoring must not even touch the ledger
        # cells (a 0.0 cell would break probes-off byte-identity).
        if self._charge > 0.0:
            self.ledger.charge(MONITOR_CATEGORY, self._charge, PROBE_SOURCE)

        nxt = now + self.plan.probe_interval
        if nxt <= self._end:
            sim.schedule(self.plan.probe_interval, self._sweep)


# ---------------------------------------------------------------------------
# Stream analysis: E(t), warmup detection, merging
# ---------------------------------------------------------------------------

def _fgh(payload: Dict[str, Any]) -> Tuple[List[float], List[float], List[float]]:
    n = int(payload["windows"])
    sums = payload.get("sums", {})

    def arr(key: str) -> List[float]:
        a = list(sums.get(key, ()))
        return a + [0.0] * (n - len(a))

    return arr("F"), arr("G"), arr("H")


def efficiency_curve(payload: Dict[str, Any]) -> List[Tuple[float, float, float]]:
    """Per-window ``(window start time, instantaneous e, cumulative E)``.

    Instantaneous ``e`` is the window's own ``F/(F+G+H)`` (``nan`` for
    empty windows); cumulative ``E`` is the run-so-far efficiency —
    the curve the online controller would act on.
    """
    f, g, h = _fgh(payload)
    width = float(payload["width"])
    out: List[Tuple[float, float, float]] = []
    cf = cg = ch = 0.0
    for i in range(int(payload["windows"])):
        cf += f[i]
        cg += g[i]
        ch += h[i]
        wtot = f[i] + g[i] + h[i]
        ctot = cf + cg + ch
        out.append(
            (
                i * width,
                f[i] / wtot if wtot > 0.0 else math.nan,
                cf / ctot if ctot > 0.0 else math.nan,
            )
        )
    return out


def detect_warmup(values: Sequence[float], max_fraction: float = 0.5) -> int:
    """MSER truncation point of a per-window signal.

    Returns the index ``d`` minimizing the standard error of the mean of
    ``values[d:]`` (NaN entries are ignored), searching ``d`` up to
    ``max_fraction`` of the finite sample — the classic
    marginal-standard-error rule for steady-state detection.  Returns
    ``0`` when fewer than four finite values exist (nothing to truncate).
    """
    finite = [(i, v) for i, v in enumerate(values) if v == v]
    n = len(finite)
    if n < 4:
        return 0
    best_d, best_se = 0, math.inf
    limit = max(1, int(n * max_fraction))
    for d in range(limit):
        tail = [v for _, v in finite[d:]]
        m = len(tail)
        mean = sum(tail) / m
        var = sum((x - mean) ** 2 for x in tail) / m
        se = math.sqrt(var / m)
        if se < best_se:
            best_se, best_d = se, d
    return finite[best_d][0]


def steady_state(payload: Dict[str, Any]) -> Dict[str, float]:
    """Warmup-truncated steady-state efficiency of one run's series.

    The warmup point is detected on the instantaneous per-window
    efficiency (MSER); steady-state E is then the aggregate
    ``F/(F+G+H)`` over the post-warmup windows, compared against the
    whole-run (final) E.  Returns::

        {"warmup_windows": d, "warmup_time": d*width,
         "steady_E": ..., "final_E": ..., "rel_error": ...}

    ``rel_error`` is ``|steady - final| / final`` (``nan`` when final E
    is undefined) — the agreement figure the acceptance criterion and
    the CI smoke job check.
    """
    f, g, h = _fgh(payload)
    width = float(payload["width"])
    inst = [
        (f[i] / t if (t := f[i] + g[i] + h[i]) > 0.0 else math.nan)
        for i in range(len(f))
    ]
    d = detect_warmup(inst)
    sf, st = math.fsum(f[d:]), math.fsum(f[d:]) + math.fsum(g[d:]) + math.fsum(h[d:])
    tf, tt = math.fsum(f), math.fsum(f) + math.fsum(g) + math.fsum(h)
    steady = sf / st if st > 0.0 else math.nan
    final = tf / tt if tt > 0.0 else math.nan
    rel = abs(steady - final) / final if final and final == final and steady == steady else math.nan
    return {
        "warmup_windows": float(d),
        "warmup_time": d * width,
        "steady_E": steady,
        "final_E": final,
        "rel_error": rel,
    }


def _resample(arr: Sequence[float], ratio: int, zero) -> list:
    """Merge ``ratio`` consecutive buckets (the decimation rule, k-ary)."""
    return [
        sum(arr[j : j + ratio], zero) for j in range(0, len(arr), ratio)
    ]


def merge_series(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Align and sum several runs' series into one study-level stream.

    Runs of one study share a base width (derived from the profile
    horizon), but individual runs may have decimated to a power-of-two
    multiple.  Every input is resampled to the **coarsest** width
    present (bucket merging — the lossless decimation rule), then sum
    keys add window-wise and sample keys pool their (sum, count) pairs.
    Raises ``ValueError`` for widths that do not align by an integer
    ratio (series from unrelated configurations).
    """
    if not payloads:
        raise ValueError("merge_series needs at least one payload")
    target = max(float(p["width"]) for p in payloads)
    out_sums: Dict[str, List[float]] = {}
    out_ssum: Dict[str, List[float]] = {}
    out_scount: Dict[str, List[int]] = {}
    windows = 0

    def _merge_into(dst: dict, key: str, arr: list, zero) -> None:
        cur = dst.setdefault(key, [])
        if len(cur) < len(arr):
            cur.extend([zero] * (len(arr) - len(cur)))
        for i, v in enumerate(arr):
            cur[i] += v

    for p in payloads:
        width = float(p["width"])
        ratio = target / width
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"cannot align window widths {width} and {target} "
                "(non-integer ratio; series from unrelated configs?)"
            )
        r = int(round(ratio))
        n = (int(p["windows"]) + r - 1) // r
        windows = max(windows, n)
        for key, arr in p.get("sums", {}).items():
            _merge_into(out_sums, key, _resample(arr, r, 0.0), 0.0)
        for key, pair in p.get("samples", {}).items():
            _merge_into(out_ssum, key, _resample(pair["sum"], r, 0.0), 0.0)
            _merge_into(out_scount, key, _resample(pair["count"], r, 0), 0)

    return {
        "v": SERIES_VERSION,
        "width": target,
        "windows": windows,
        "sums": {
            key: arr + [0.0] * (windows - len(arr))
            for key, arr in sorted(out_sums.items())
        },
        "samples": {
            key: {
                "sum": out_ssum[key] + [0.0] * (windows - len(out_ssum[key])),
                "count": out_scount[key] + [0] * (windows - len(out_scount[key])),
            }
            for key in sorted(out_ssum)
        },
    }
