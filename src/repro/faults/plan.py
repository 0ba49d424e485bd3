"""The :class:`FaultPlan` public API: one declarative description of
every fault a run injects.

The paper's model assumes a static resource pool; real Grids are
defined by churn.  A ``FaultPlan`` consolidates every failure knob the
substrate supports into a single frozen dataclass that rides on
:class:`~repro.experiments.config.SimulationConfig` (and is therefore
hashed into the run-cache key):

* **link loss** — the transport's control-plane message-loss
  probability;
* **resource churn** — crash/recover cycles, either stochastic
  (exponential MTTF/MTTR drawn from the run's deterministic RNG) or an
  explicit :class:`CrashEvent` timeline;
* **scheduler blackouts** — windows during which a scheduler stops
  processing messages (they queue; nothing is lost);
* **link degradation windows** — time intervals that add loss and/or
  scale delays on top of the base transport knobs.

Everything is deterministic: stochastic churn derives from the run's
root seed (the ``"faults"`` stream), so two runs of the same config are
bit-for-bit identical, and the default ``FaultPlan()`` is *inert* — it
arms no machinery, draws no random numbers, and leaves every zero-fault
run byte-identical to a build without the subsystem.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "Blackout",
    "CrashEvent",
    "DegradationWindow",
    "FaultPlan",
    "plan_from_jsonable",
    "plan_to_jsonable",
]


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled resource crash.

    Attributes
    ----------
    resource:
        Resource id (taken modulo the pool size at build time, so an
        explicit timeline stays usable across scale factors).
    at:
        Simulated crash instant.
    duration:
        Downtime; ``inf`` (or any non-positive-recovery value ≥ the
        run length) means the resource never comes back.
    """

    resource: int
    at: float
    duration: float = float("inf")

    def __post_init__(self) -> None:
        if self.resource < 0:
            raise ValueError("resource id must be nonnegative")
        if self.at < 0.0:
            raise ValueError("crash time must be nonnegative")
        if not self.duration > 0.0:
            raise ValueError("crash duration must be positive")


@dataclass(frozen=True)
class Blackout:
    """A window during which one scheduler processes no messages.

    Deliveries during the window queue at the scheduler and are served
    when it resumes — modeling a hung/overloaded manager node rather
    than a lossy one.
    """

    scheduler: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.scheduler < 0:
            raise ValueError("scheduler id must be nonnegative")
        if self.at < 0.0:
            raise ValueError("blackout time must be nonnegative")
        if not self.duration > 0.0:
            raise ValueError("blackout duration must be positive")


@dataclass(frozen=True)
class DegradationWindow:
    """A time window of degraded transport.

    While active, ``extra_loss`` adds to the control-plane loss
    probability and every transit delay is multiplied by
    ``delay_factor`` — modulating the existing loss/delay knobs rather
    than replacing them.
    """

    at: float
    duration: float
    extra_loss: float = 0.0
    delay_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0.0:
            raise ValueError("window start must be nonnegative")
        if not self.duration > 0.0:
            raise ValueError("window duration must be positive")
        if not (0.0 <= self.extra_loss < 1.0):
            raise ValueError("extra_loss must be in [0, 1)")
        if self.delay_factor <= 0.0:
            raise ValueError("delay_factor must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule of one run (inert by default).

    Attributes
    ----------
    link_loss:
        Control-plane message-loss probability (the job plane stays
        reliable; see :mod:`repro.network.transport`).
    resource_mttf / resource_mttr:
        Exponential mean time to failure / to repair for stochastic
        resource churn.  ``resource_mttr=None`` derives MTTR as one
        tenth of MTTF.  ``resource_mttf=None`` disables churn.
    churn_fraction:
        Fraction of the resource pool subject to churn (chosen
        deterministically from the run RNG).
    crashes / blackouts / degradations:
        Explicit fault timelines (applied in addition to churn).
    heartbeat_timeout:
        Silence span after which an estimator declares a resource
        dead.  ``None`` derives ``4.5 x update_interval`` — safely
        beyond the resource keepalive span (3 intervals), so a healthy
        quiet resource is never declared dead.
    heartbeat_interval:
        Estimator liveness-sweep period (``None``: the update
        interval).
    redispatch_backoff / redispatch_cap:
        Capped exponential backoff for job re-dispatch after a crash:
        the n-th retry of a job waits ``min(backoff * 2**n, cap)``.
    """

    link_loss: float = 0.0
    resource_mttf: Optional[float] = None
    resource_mttr: Optional[float] = None
    churn_fraction: float = 1.0
    crashes: Tuple[CrashEvent, ...] = ()
    blackouts: Tuple[Blackout, ...] = ()
    degradations: Tuple[DegradationWindow, ...] = ()
    heartbeat_timeout: Optional[float] = None
    heartbeat_interval: Optional[float] = None
    redispatch_backoff: float = 20.0
    redispatch_cap: float = 320.0

    def __post_init__(self) -> None:
        # Tolerate lists from JSON plan files; canonicalize to tuples.
        for name, cls in (
            ("crashes", CrashEvent),
            ("blackouts", Blackout),
            ("degradations", DegradationWindow),
        ):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
                value = getattr(self, name)
            for item in value:
                if not isinstance(item, cls):
                    raise TypeError(f"{name} must contain {cls.__name__} items")
        if not (0.0 <= self.link_loss < 1.0):
            raise ValueError("link_loss must be in [0, 1)")
        if self.resource_mttf is not None and self.resource_mttf <= 0.0:
            raise ValueError("resource_mttf must be positive")
        if self.resource_mttr is not None and self.resource_mttr <= 0.0:
            raise ValueError("resource_mttr must be positive")
        if not (0.0 < self.churn_fraction <= 1.0):
            raise ValueError("churn_fraction must be in (0, 1]")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0.0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0.0:
            raise ValueError("heartbeat_interval must be positive")
        if self.redispatch_backoff <= 0.0 or self.redispatch_cap <= 0.0:
            raise ValueError("re-dispatch backoff parameters must be positive")

    # -- predicates (gate what the builder arms) ------------------------
    @property
    def has_churn(self) -> bool:
        """Whether stochastic crash/recover cycles are requested."""
        return self.resource_mttf is not None

    @property
    def has_resource_faults(self) -> bool:
        """Whether any resource can crash (churn or explicit timeline)."""
        return self.has_churn or bool(self.crashes)

    @property
    def any_link_loss(self) -> bool:
        """Whether any message can ever be dropped (base or windowed)."""
        return self.link_loss > 0.0 or any(
            w.extra_loss > 0.0 for w in self.degradations
        )

    @property
    def is_inert(self) -> bool:
        """True iff the plan injects nothing at all (the default)."""
        return not (
            self.any_link_loss
            or self.has_resource_faults
            or self.blackouts
            or self.degradations
        )

    # -- derived settings -------------------------------------------------
    @property
    def effective_mttr(self) -> float:
        """The repair mean actually applied (default: MTTF / 10)."""
        if self.resource_mttr is not None:
            return self.resource_mttr
        if self.resource_mttf is None:
            raise ValueError("no churn configured")
        return self.resource_mttf / 10.0

    def effective_heartbeat_timeout(self, update_interval: float) -> float:
        """Dead-declaration silence span under ``update_interval``."""
        if self.heartbeat_timeout is not None:
            return self.heartbeat_timeout
        return 4.5 * update_interval

    def effective_heartbeat_interval(self, update_interval: float) -> float:
        """Estimator liveness-sweep period under ``update_interval``."""
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return update_interval


# ---------------------------------------------------------------------------
# JSON (de)serialization — the CLI's ``--fault-plan FILE`` format
# ---------------------------------------------------------------------------

def plan_to_jsonable(plan: FaultPlan) -> Dict[str, Any]:
    """The plan as plain JSON types (inverse of :func:`plan_from_jsonable`)."""
    out = dataclasses.asdict(plan)
    for name in ("crashes", "blackouts", "degradations"):
        out[name] = [dict(item) for item in out[name]]
    return out


def plan_from_jsonable(payload: Dict[str, Any]) -> FaultPlan:
    """Build a :class:`FaultPlan` from a JSON dict (unknown keys rejected)."""
    if not isinstance(payload, dict):
        raise TypeError("a fault plan must be a JSON object")
    known = {f.name for f in dataclasses.fields(FaultPlan)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
    kwargs = dict(payload)
    for name, cls in (
        ("crashes", CrashEvent),
        ("blackouts", Blackout),
        ("degradations", DegradationWindow),
    ):
        if name in kwargs:
            kwargs[name] = tuple(
                item if isinstance(item, cls) else cls(**item)
                for item in kwargs[name]
            )
    return FaultPlan(**kwargs)
