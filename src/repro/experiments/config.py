"""Experiment configuration: Table-1 constants, scale profiles, and the
full description of one simulation run.

Two **scale profiles** are provided:

* ``ci`` (default) — shrunk grids and horizons so that a full
  figure regeneration (7 RMSs x scales x annealing probes) completes in
  minutes on a laptop.  Cluster size, workload intensity per resource,
  and all cost constants match the ``full`` profile, so the *shape* of
  every result carries over; only absolute magnitudes differ.
* ``full`` — the paper's 1000-node networks (Cases 2-4) and its six
  scale factors.  Hours of compute; used for the archival numbers in
  EXPERIMENTS.md.

Calibration (see EXPERIMENTS.md): the base workload rate is chosen so
that, at the default enabler settings, the managed system's efficiency
``E = F/(F+G+H)`` lands inside the paper's Step-1 band [0.38, 0.42] —
the regime the paper studies, in which state estimation and scheduling
consume work comparable to the delivered computation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..faults.plan import FaultPlan, plan_from_jsonable, plan_to_jsonable
from ..fluid.plan import FluidPlan, fluid_plan_from_jsonable, fluid_plan_to_jsonable
from ..grid.costs import CostModel
from ..telemetry.timeseries import (
    MonitorPlan,
    monitor_plan_from_jsonable,
    monitor_plan_to_jsonable,
)
from ..telemetry.tracing import (
    TracePlan,
    trace_plan_from_jsonable,
    trace_plan_to_jsonable,
)

__all__ = [
    "CommonParameters",
    "ScaleProfile",
    "SimulationConfig",
    "PROFILES",
    "config_from_jsonable",
    "config_to_jsonable",
]


@dataclass(frozen=True)
class CommonParameters:
    """Table 1: common variables used for all experiments.

    Attributes
    ----------
    t_cpu:
        LOCAL/REMOTE classification threshold: "Jobs with execution
        time <= T_CPU are LOCAL jobs" (700 time units).
    t_l:
        Threshold load at a scheduler (0.5).
    benefit_lo, benefit_hi:
        The user benefit function's factor range: ``U_b = u * runtime``
        with ``u ~ U[2, 5]``.
    efficiency_band:
        Step-1 band for ``E(k0)``: [0.38, 0.42].
    """

    t_cpu: float = 700.0
    t_l: float = 0.5
    benefit_lo: float = 2.0
    benefit_hi: float = 5.0
    efficiency_band: Tuple[float, float] = (0.38, 0.42)


@dataclass(frozen=True)
class ScaleProfile:
    """Base-scale system sizes for one compute budget.

    Attributes
    ----------
    name:
        Profile identifier (``ci`` or ``full``).
    base_resources:
        Resource-pool size of the Case-1 base configuration.
    base_schedulers:
        Scheduler count of the Case-1 base configuration.
    fixed_resources / fixed_schedulers:
        Pool shape for the fixed-network cases (2-4); the paper uses a
        1000-node network there.
    base_rate_per_resource:
        Base workload intensity (jobs per time unit per resource) —
        the calibrated value that puts base efficiency in the band.
    horizon:
        Measured simulation horizon (time units).
    drain:
        Extra time allowed for submitted jobs to finish after the
        arrival window closes.
    scales:
        The scaling path (paper: 1..6).
    sa_iterations:
        Annealing budget per (RMS, scale) tuning problem.
    """

    name: str
    base_resources: int
    base_schedulers: int
    fixed_resources: int
    fixed_schedulers: int
    base_rate_per_resource: float
    horizon: float
    drain: float
    scales: Tuple[float, ...]
    sa_iterations: int


#: the two standard profiles
PROFILES: Dict[str, ScaleProfile] = {
    "ci": ScaleProfile(
        name="ci",
        base_resources=24,
        base_schedulers=8,
        fixed_resources=48,
        fixed_schedulers=16,
        base_rate_per_resource=0.00028,
        horizon=12000.0,
        drain=6000.0,
        scales=(1, 2, 3),
        sa_iterations=10,
    ),
    "full": ScaleProfile(
        name="full",
        base_resources=160,
        base_schedulers=32,
        fixed_resources=960,
        fixed_schedulers=40,
        base_rate_per_resource=0.00028,
        horizon=20000.0,
        drain=10000.0,
        scales=(1, 2, 3, 4, 5, 6),
        sa_iterations=30,
    ),
    # Extreme-scale profile for the fluid traffic mode: Case 1 reaches
    # 1e5 resources at scale 4 (and 1e6 would be scale 40 of the same
    # base).  Discrete mode is intractable here — the periodic status /
    # keepalive storms alone would be tens of millions of events — so
    # this profile is intended to run with ``--traffic-mode fluid``.
    # The horizon is short (the point is G(k) measurability, not
    # steady-state averaging) and the annealing budget minimal.
    "extreme": ScaleProfile(
        name="extreme",
        base_resources=25_000,
        base_schedulers=32,
        fixed_resources=100_000,
        fixed_schedulers=128,
        # Light per-resource demand, calibrated against the status-scan
        # decision cost: clusters hold ~780 resources, so one decision
        # costs ``decision_base + scan_per_entry * 780 ~ 470`` time
        # units, and the per-scheduler arrival rate (rate x 780) must
        # keep utilization ``rate x 780 x 470 ~ 0.37`` under one.  The
        # extreme cases measure status-plane scaling, not queueing
        # collapse — the job plane just has to stay healthy enough that
        # F and the success rate are nonzero.
        base_rate_per_resource=0.000001,
        horizon=3000.0,
        drain=1500.0,
        scales=(1, 2, 4),
        sa_iterations=4,
    ),
}


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to build and run one simulation.

    The experiment cases construct these from their scaling variables;
    the enabler settings are injected by the tuner per probe.

    Attributes
    ----------
    rms:
        RMS design name (one of the seven).
    n_schedulers / n_resources / n_estimators:
        System shape.  ``n_estimators=None`` means one per scheduler
        (co-located base configuration).
    workload_rate:
        System-wide job arrival rate (jobs per time unit).
    service_rate:
        Per-resource service rate (Case 2's scaling variable).
    l_p:
        Peers contacted per scheduling action (Case 4's variable).
    update_interval:
        Status-update period tau (enabler).
    neighborhood_size:
        Size of each scheduler's candidate peer set (enabler).
    link_delay_scale:
        Multiplier on message transit delays (enabler).
    volunteer_interval:
        Period of volunteering/advert loops (enabler; push designs).
    horizon / drain:
        Arrival window and post-window drain allowance.
    seed:
        Root seed; every stream (topology, workload, protocol jitter)
        derives from it, so runs are exactly reproducible.
    common:
        Table-1 constants.
    costs:
        Processing-cost model.
    faults:
        The run's :class:`~repro.faults.plan.FaultPlan` (inert by
        default).  Hashed into the run-cache key like every other
        field.
    monitor:
        The run's :class:`~repro.telemetry.timeseries.MonitorPlan`
        (disabled by default).  **Passive** plans (zero probe charge
        rate) observe without perturbing F/G/H and are excluded from
        the run-cache key; an **active** plan
        charges ``g.monitor`` and is hashed like any semantic field.
    trace:
        The run's :class:`~repro.telemetry.tracing.TracePlan`
        (disabled by default).  Same conditional-provenance discipline
        as ``monitor``: a plan with a zero charge rate observes
        without perturbing F/G/H and is excluded from the run-cache
        key; a plan that charges ``g.trace`` is hashed like any
        semantic field.
    """

    rms: str
    n_schedulers: int
    n_resources: int
    workload_rate: float
    service_rate: float = 1.0
    n_estimators: Optional[int] = None
    l_p: int = 2
    update_interval: float = 40.0
    neighborhood_size: int = 4
    link_delay_scale: float = 1.0
    volunteer_interval: float = 120.0
    horizon: float = 3000.0
    drain: float = 4000.0
    seed: int = 7
    common: CommonParameters = field(default_factory=CommonParameters)
    costs: CostModel = field(default_factory=CostModel)
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: estimator aggregation period; ``None`` derives it as half the
    #: update interval, ``0`` disables batching (ablation).
    estimator_batch_window: Optional[float] = None
    #: probability a job depends on earlier jobs (paper future-work
    #: extension; 0 = the paper's independent-jobs evaluation)
    dependency_prob: float = 0.0
    #: maximum parents per dependent job
    max_parents: int = 2
    #: parents are drawn among this many most recent jobs
    dependency_window: int = 10
    #: time-resolved monitoring plan (passive plans excluded from cache keys)
    monitor: MonitorPlan = field(default_factory=MonitorPlan)
    #: traffic mode plan (inert ``discrete`` plans excluded from cache
    #: keys so pre-fluid cache entries stay valid — see
    #: :mod:`repro.experiments.parallel.hashing`)
    fluid: FluidPlan = field(default_factory=FluidPlan)
    #: causal-tracing plan (passive plans excluded from cache keys)
    trace: TracePlan = field(default_factory=TracePlan)

    @property
    def effective_batch_window(self) -> float:
        """The estimator batch window actually applied."""
        if self.estimator_batch_window is None:
            return 0.5 * self.update_interval
        return self.estimator_batch_window

    def __post_init__(self) -> None:
        if self.n_schedulers < 1 or self.n_resources < self.n_schedulers:
            raise ValueError("need >= 1 scheduler and >= 1 resource per scheduler")
        if self.workload_rate <= 0 or self.service_rate <= 0:
            raise ValueError("rates must be positive")
        if self.l_p < 0:
            raise ValueError("l_p must be nonnegative")
        if self.update_interval <= 0 or self.volunteer_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")
        if self.horizon <= 0 or self.drain < 0:
            raise ValueError("horizon must be positive, drain nonnegative")
        if not (0.0 <= self.dependency_prob <= 1.0):
            raise ValueError("dependency_prob must be in [0, 1]")

    @property
    def heartbeat_timeout(self) -> float:
        """Dead-declaration silence span (plan override or derived)."""
        return self.faults.effective_heartbeat_timeout(self.update_interval)

    @property
    def heartbeat_interval(self) -> float:
        """Estimator liveness-sweep period (plan override or derived)."""
        return self.faults.effective_heartbeat_interval(self.update_interval)

    def with_enablers(self, settings: Dict[str, float]) -> "SimulationConfig":
        """A copy with enabler settings applied (unknown keys rejected)."""
        mapping = {
            "update_interval": "update_interval",
            "neighborhood_size": "neighborhood_size",
            "link_delay_scale": "link_delay_scale",
            "volunteer_interval": "volunteer_interval",
        }
        kwargs = {}
        for name, value in settings.items():
            if name not in mapping:
                raise KeyError(f"unknown enabler {name!r}")
            attr = mapping[name]
            kwargs[attr] = int(value) if attr == "neighborhood_size" else value
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Wire (de)serialization — the fabric protocol's config transport
# ---------------------------------------------------------------------------

#: nested dataclass fields with dedicated (de)serializers
_NESTED_SERIALIZERS = {
    "common": (dataclasses.asdict, None),
    "costs": (dataclasses.asdict, None),
    "faults": (plan_to_jsonable, plan_from_jsonable),
    "monitor": (monitor_plan_to_jsonable, monitor_plan_from_jsonable),
    "fluid": (fluid_plan_to_jsonable, fluid_plan_from_jsonable),
    "trace": (trace_plan_to_jsonable, trace_plan_from_jsonable),
}


def config_to_jsonable(config: SimulationConfig) -> Dict[str, Any]:
    """Flatten a :class:`SimulationConfig` into plain JSON types.

    Every field rides along verbatim (plans through their existing plan
    serializers), so :func:`config_from_jsonable` reconstructs an
    **equal** config — same dataclass equality, same run-cache key.
    That exactness is what lets fabric workers receive configs over the
    wire and return results byte-identical to an in-process run.
    """
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(SimulationConfig):
        value = getattr(config, f.name)
        encode = _NESTED_SERIALIZERS.get(f.name, (None, None))[0]
        out[f.name] = value if encode is None else encode(value)
    return out


def config_from_jsonable(payload: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_jsonable`
    output (unknown keys rejected).

    Two retired fields still decode: ``kernel_backend`` (provenance
    only, never hashed) is dropped, and ``loss_probability`` is dropped
    when it is ``0`` — the only value an old payload can carry, since
    a nonzero one was moved onto ``faults.link_loss`` on construction.
    """
    if not isinstance(payload, dict):
        raise TypeError("a simulation config must be a JSON object")
    payload = dict(payload)
    payload.pop("kernel_backend", None)
    if payload.pop("loss_probability", 0) != 0:
        raise ValueError("loss_probability is retired; use faults.link_loss")
    known = {f.name for f in dataclasses.fields(SimulationConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        if name in _NESTED_SERIALIZERS:
            decode = _NESTED_SERIALIZERS[name][1]
            if decode is not None:
                kwargs[name] = decode(value)
            elif name == "common":
                value = dict(value)
                if "efficiency_band" in value:
                    value["efficiency_band"] = tuple(value["efficiency_band"])
                kwargs[name] = CommonParameters(**value)
            else:
                kwargs[name] = CostModel(**value)
        else:
            kwargs[name] = value
    return SimulationConfig(**kwargs)
