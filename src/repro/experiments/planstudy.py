"""One plan-study pipeline: ``repro faults``, ``repro series``, ``repro trace``.

The paper's measurement is one procedure: walk Case 1 along k and read
``E(k) = F/(F+G+H)`` and the slope of G.  The three plan studies are
that procedure with a plan attached to every config — a
:class:`~repro.faults.plan.FaultPlan` (resource churn, recovery work in
``g.faults``), a :class:`~repro.telemetry.timeseries.MonitorPlan`
(windowed F/G/H streams and probes, ``g.monitor``) or a
:class:`~repro.telemetry.tracing.TracePlan` (sampled span DAGs,
``g.trace``).  :func:`run_plan_study` runs all three the same way:

* every (RMS, scale) config — plus, for a series study, the
  probe-interval sweep's base-scale configs — goes to the engine as
  **one** batch, so results are independent of ``--jobs`` (without an
  engine the configs run inline);
* each run becomes a :class:`PlanStudyPoint`, collected in a
  :class:`PlanStudyResult`;
* the study checkpoints into ``<cache>/manifests/<kind>.json`` in the
  manifest shape ``repro attrib`` and ``repro watch`` read, one entry
  per design keyed ``<profile>:seed<seed>:<kind><digest>[:fluid...]:case1:<rms>``.

What differs between the kinds is plain data in :data:`PLAN_KINDS`:
the config field the plan rides on, the manifest/JSONL field holding
the plan, the plan codec, the per-point fields, how a
:class:`~repro.experiments.spec.StudySpec` resolves its plan, the
report renderers and the export writers.  The renderers that draw
different things live beside each kind's default plan in
:mod:`.faultstudy`, :mod:`.seriesstudy` and :mod:`.tracestudy`.

Cache interaction: passive monitor and trace plans share cache keys
with plain runs by design (see ``parallel.hashing``).
:meth:`~repro.experiments.parallel.cache.RunCache.get` serves such an
entry only when it carries the payload the config's plan asks for,
recorded under the same passive plan; anything else reads as a miss,
and the recomputed (byte-identical) run upgrades the entry in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..faults.plan import plan_to_jsonable
from ..rms.registry import rms_names
from ..telemetry.critpath import aggregate_phases, phase_shares
from ..telemetry.timeseries import monitor_plan_to_jsonable, steady_state
from ..telemetry.tracing import trace_plan_to_jsonable
from . import faultstudy, seriesstudy, tracestudy
from .cases import get_case
from .config import PROFILES, ScaleProfile, SimulationConfig
from .parallel.hashing import canonical_json
from .parallel.manifest import StudyManifest
from .runner import RunMetrics, run_simulation
from .spec import StudySpec

__all__ = [
    "PLAN_KINDS",
    "PlanKind",
    "PlanStudyPoint",
    "PlanStudyResult",
    "export_jsonl",
    "plan_digest",
    "run_plan_study",
    "study_report",
]


@dataclass(frozen=True)
class PlanStudyPoint:
    """One (RMS, scale) run under the study's plan."""

    rms: str
    scale: float
    metrics: RunMetrics
    #: the config the run executed (``repro faults --events-out``
    #: replays it)
    config: SimulationConfig

    def g(self, component: str) -> float:
        """The run's total overhead under ``g.<component>``.

        ``g("faults")`` is recovery work, ``g("monitor")`` probe
        charges, ``g("trace")`` span recording.
        """
        prefix = f"g.{component}"
        attribution = self.metrics.attribution or {}
        return math.fsum(v for k, v in attribution.items() if k.startswith(prefix))

    @property
    def record(self) -> Dict[str, float]:
        """F/G/H as the manifest and JSONL exports write them."""
        r = self.metrics.record
        return {"F": r.F, "G": r.G, "H": r.H}

    @property
    def fault_stats(self) -> Dict[str, Any]:
        return self.metrics.fault_stats or {}

    @property
    def series(self) -> Optional[Dict[str, Any]]:
        return self.metrics.series

    @property
    def steady(self) -> Dict[str, float]:
        """Warmup/steady-state analysis of the run's stream."""
        if self.series is None:
            return {}
        return steady_state(self.series)

    @property
    def trace(self) -> Optional[Dict[str, Any]]:
        return self.metrics.trace

    @property
    def phases(self) -> Dict[str, Any]:
        """The run's phase aggregate (``aggregate_phases`` shape)."""
        if self.trace is None:
            return {}
        return aggregate_phases(self.trace)

    @property
    def shares(self) -> Dict[str, float]:
        """Each phase's share of the run's summed turnaround."""
        agg = self.phases
        if not agg:
            return {}
        return phase_shares(agg["phases"])


@dataclass(frozen=True)
class PlanStudyResult:
    """Everything one plan study measured."""

    kind: str
    profile: str
    seed: int
    plan: Any
    #: traffic plan the runs executed under (``None`` means discrete)
    fluid: Optional[Any] = None
    #: RMS name -> points in ascending scale order
    points: Dict[str, List[PlanStudyPoint]] = field(default_factory=dict)
    #: series only: probe-interval sweep points (interval -> per-RMS
    #: points), present only when several intervals were requested
    sweep: Dict[float, Dict[str, PlanStudyPoint]] = field(default_factory=dict)
    manifest_path: Optional[Path] = None

    @property
    def digest(self) -> str:
        """The plan's short digest (manifest key component)."""
        return plan_digest(self.kind, self.plan)


# ---------------------------------------------------------------------------
# The per-kind table
# ---------------------------------------------------------------------------

def _resolve_faults(spec: StudySpec, profile: ScaleProfile):
    # an explicit plan wins; else the churn default, timed by the spec
    if spec.faults is not None:
        return spec.faults
    return faultstudy.default_churn_plan(profile, mttf=spec.mttf, mttr=spec.mttr)


def _resolve_monitor(spec: StudySpec, profile: ScaleProfile):
    intervals = spec.probe_intervals
    return seriesstudy.default_monitor_plan(
        profile,
        window=spec.window,
        probe_interval=intervals[0] if intervals else None,
        charge_rate=spec.charge_rate,
    )


def _resolve_trace(spec: StudySpec, profile: ScaleProfile):
    return tracestudy.default_trace_plan(
        sample=spec.trace_sample,
        charge_rate=spec.trace_charge,
        max_events=spec.max_events,
    )


@dataclass(frozen=True)
class PlanKind:
    """What tells one plan study from another: plain data, no behaviour."""

    #: the ``SimulationConfig`` field the plan rides on
    config_field: str
    #: manifest entry / JSONL field holding the plan
    plan_field: str
    #: plan -> plain JSON (manifest, JSONL, digest)
    codec: Callable[[Any], Dict[str, Any]]
    #: point attributes each manifest point carries after the record
    #: and attribution
    manifest_fields: Tuple[str, ...]
    #: point attributes each JSONL line carries after the record
    jsonl_fields: Tuple[str, ...]
    #: (spec, profile) -> plan: each knob from the spec, then the
    #: environment, then the kind's derived default
    resolve: Callable[[StudySpec, ScaleProfile], Any]
    #: renderers joined (skipping empty ones) into the printed report
    report: Tuple[Callable[..., str], ...]
    #: CLI flag -> (writer, what one written item is called)
    exports: Dict[str, Tuple[Callable[[Any, TextIO], int], str]]
    #: whether a spec's fault plan rides along under this kind's plan
    takes_fault_plan: bool = False
    #: (plan, probe interval) -> the sweep plan; ``None``: no sweep
    sweep: Optional[Callable[[Any, float], Any]] = None
    #: whether ``repro watch`` renders the manifest's points
    watchable: bool = False


def export_jsonl(result: PlanStudyResult, fh: TextIO) -> int:
    """One JSON line per run (the full payload); returns the line count."""
    kind = PLAN_KINDS[result.kind]
    plan = kind.codec(result.plan)
    n = 0
    for name, points in result.points.items():
        for p in points:
            line = {
                "rms": name,
                "scale": p.scale,
                "profile": result.profile,
                "seed": result.seed,
                kind.plan_field: plan,
                "record": p.record,
            }
            line.update((f, getattr(p, f)) for f in kind.jsonl_fields)
            fh.write(json.dumps(line, sort_keys=True) + "\n")
            n += 1
    return n


PLAN_KINDS: Dict[str, PlanKind] = {
    "faults": PlanKind(
        config_field="faults",
        plan_field="plan",
        codec=plan_to_jsonable,
        manifest_fields=("fault_stats",),
        jsonl_fields=("fault_stats",),
        resolve=_resolve_faults,
        report=(faultstudy.fault_report,),
        exports={},
    ),
    "series": PlanKind(
        config_field="monitor",
        plan_field="monitor",
        codec=monitor_plan_to_jsonable,
        manifest_fields=("series", "steady"),
        jsonl_fields=("steady", "series"),
        resolve=_resolve_monitor,
        report=(seriesstudy.series_report, seriesstudy.sweep_report),
        exports={
            "csv": (seriesstudy.export_csv, "window rows"),
            "jsonl": (export_jsonl, "run series"),
            "prom": (seriesstudy.export_prometheus, "Prometheus samples"),
        },
        sweep=lambda plan, interval: dataclasses.replace(
            plan, series=True, probe_interval=interval
        ),
        watchable=True,
    ),
    "trace": PlanKind(
        config_field="trace",
        plan_field="trace_plan",
        codec=trace_plan_to_jsonable,
        manifest_fields=("phases", "shares"),
        jsonl_fields=("phases", "shares", "trace"),
        resolve=_resolve_trace,
        report=(tracestudy.trace_report,),
        exports={
            "csv": (tracestudy.export_csv, "phase rows"),
            "jsonl": (export_jsonl, "run traces"),
            "prom": (tracestudy.export_prometheus, "Prometheus samples"),
        },
        takes_fault_plan=True,
    ),
}


def plan_digest(kind: str, plan: Any) -> str:
    """A short stable digest of a study's plan (manifest key component)."""
    codec = PLAN_KINDS[kind].codec
    return hashlib.sha256(canonical_json(codec(plan))).hexdigest()[:12]


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------

def run_plan_study(
    kind: str,
    plan: Any,
    profile: "str | ScaleProfile" = "ci",
    rms: Optional[Sequence[str]] = None,
    seed: int = 7,
    sweep_intervals: Sequence[float] = (),
    engine=None,
    manifest_path: "str | Path | None" = None,
    fluid=None,
    faults=None,
) -> PlanStudyResult:
    """Run one plan study: Case-1 scaling with ``plan`` on every config.

    Parameters
    ----------
    kind:
        ``"faults"``, ``"series"`` or ``"trace"`` (a :data:`PLAN_KINDS`
        key); ``plan`` is that kind's plan object.
    sweep_intervals:
        Series only: further probe intervals for the overhead/accuracy
        sweep, each run at the base scale for every design with the
        plan's other settings.
    engine:
        Optional :class:`~repro.experiments.parallel.ExperimentEngine`;
        all runs go through it as **one** batch, so worker count cannot
        affect results.
    manifest_path:
        When given, each design's points are checkpointed there in the
        study-manifest shape ``repro attrib`` and ``repro watch`` read.
    fluid:
        Optional :class:`~repro.fluid.plan.FluidPlan` applied to every
        run.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to every
        run of a study whose own plan is not a fault plan (crash and
        recovery paths then show up in a trace as ``recovery_wait``).
    """
    row = PLAN_KINDS[kind]
    if sweep_intervals and row.sweep is None:
        raise ValueError(f"a {kind} study has no probe-interval sweep")
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    names = list(rms) if rms else rms_names()
    intervals = [
        float(i) for i in sweep_intervals if float(i) != plan.probe_interval
    ]
    case = get_case(1)
    fields = {} if faults is None else {"faults": faults}

    base_k = prof.scales[0]
    runs = [(name, k, plan) for name in names for k in prof.scales]
    runs += [
        (name, base_k, row.sweep(plan, interval))
        for interval in intervals
        for name in names
    ]
    configs = [
        case.config_for(
            name, k, prof, seed=seed, fluid=fluid,
            **{**fields, row.config_field: run_plan},
        )
        for name, k, run_plan in runs
    ]
    if engine is not None:
        metrics_list = engine.run_many(configs)
    else:
        metrics_list = [run_simulation(c) for c in configs]

    done = iter(
        PlanStudyPoint(rms=name, scale=float(k), metrics=m, config=c)
        for (name, k, _), c, m in zip(runs, configs, metrics_list)
    )
    points = {name: [next(done) for _ in prof.scales] for name in names}
    sweep: Dict[float, Dict[str, PlanStudyPoint]] = {
        interval: {name: next(done) for name in names} for interval in intervals
    }
    if intervals:
        # the study's own points cover the plan's interval at base scale
        sweep[plan.probe_interval] = {name: points[name][0] for name in names}

    result = PlanStudyResult(
        kind=kind,
        profile=prof.name,
        seed=seed,
        plan=plan,
        fluid=fluid,
        points=points,
        sweep=dict(sorted(sweep.items())),
        manifest_path=Path(manifest_path) if manifest_path else None,
    )
    if result.manifest_path is not None:
        _write_manifest(result)
    return result


def _write_manifest(result: PlanStudyResult) -> None:
    """Checkpoint the study in the shape ``repro attrib``/``watch`` read."""
    kind = PLAN_KINDS[result.kind]
    manifest = StudyManifest(result.manifest_path)
    fluid = ""
    if result.fluid is not None and getattr(result.fluid, "is_fluid", False):
        fluid = f":fluid{result.fluid.mode}-fan{result.fluid.aggregator_fanout}"
    tag = f"{result.kind}{result.digest}{fluid}"
    plan = kind.codec(result.plan)
    for name, points in result.points.items():
        payload = {
            kind.plan_field: plan,
            "result": {
                "points": [
                    {
                        "scale": p.scale,
                        "record": p.record,
                        "attribution": p.metrics.attribution or {},
                        **{f: getattr(p, f) for f in kind.manifest_fields},
                    }
                    for p in points
                ]
            },
        }
        key = f"{result.profile}:seed{result.seed}:{tag}:case1:{name}"
        manifest.mark_done(key, payload)


def study_report(result: PlanStudyResult, precision: int) -> str:
    """The printed report: the kind's renderers, empty ones skipped."""
    renderers = PLAN_KINDS[result.kind].report
    parts = (render(result, precision=precision) for render in renderers)
    return "\n".join(part for part in parts if part)
