"""The public Python API: run any study from one :class:`StudySpec`.

This facade is the programmatic twin of the CLI and the fabric's wire
protocol — all three construct the same frozen
:class:`~repro.experiments.spec.StudySpec` and hand it to the same
execution path, so results are identical by construction::

    from repro.api import StudySpec, run_study

    result = run_study(StudySpec(kind="compare", profile="ci", jobs=4))
    print(result.report)

:func:`run_study` executes locally (building an engine
and content-addressed cache unless one is passed in);
:func:`submit_study` ships the same spec to a ``repro serve``
coordinator over the fabric protocol and returns the same
:class:`StudyResult` shape.  The contract between the two: a study
executed through the fabric is byte-identical — cache entries and
manifest — to the same spec run locally with ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

from .experiments.spec import (
    KINDS,
    StudySpec,
    spec_digest,
    spec_from_jsonable,
    spec_to_jsonable,
)

__all__ = [
    "FIGURE_QUANTITY",
    "KINDS",
    "StudyResult",
    "StudySpec",
    "cache_for_spec",
    "engine_for_spec",
    "run_study",
    "spec_digest",
    "spec_from_jsonable",
    "spec_to_jsonable",
    "submit_study",
]

#: figure number -> the quantity its y-axis plots
FIGURE_QUANTITY = {2: "G", 3: "G", 4: "G", 5: "G", 6: "throughput", 7: "response"}

#: per-kind default table precision (mirrors the CLI defaults)
_PRECISION = {"figure": 1, "compare": 3, "faults": 1, "series": 3, "trace": 3}


@dataclass(frozen=True)
class StudyResult:
    """What running a spec produced.

    ``report`` is the rendered human-readable deliverable (what the CLI
    prints).  ``data`` is the kind's in-memory result object (a
    ``FigureData``, comparison rows, or a ``PlanStudyResult``)
    for programmatic use — ``None`` when the study ran remotely.
    ``manifest_path`` points at the study manifest when one was written.
    """

    kind: str
    spec: StudySpec
    report: str
    data: Any = None
    manifest_path: Optional[Path] = None


# ---------------------------------------------------------------------------
# execution plumbing shared by CLI / API / fabric
# ---------------------------------------------------------------------------

def cache_root_for_spec(spec: StudySpec) -> str:
    """The run-cache root a spec resolves to (spec > env > default)."""
    from .envknobs import get_str
    from .experiments.parallel.cache import DEFAULT_CACHE_DIR

    return get_str("REPRO_CACHE_DIR", override=spec.cache_dir,
                   default=DEFAULT_CACHE_DIR)


def cache_for_spec(spec: StudySpec):
    """The content-addressed run cache a spec resolves to.

    One cache serves every kind: :meth:`RunCache.get` itself refuses an
    entry that lacks the series or trace payload a config's plan asks
    for (see :mod:`repro.experiments.parallel.cache`).
    """
    from .experiments.parallel import RunCache

    return RunCache(root=cache_root_for_spec(spec), read=not spec.no_cache)


def engine_for_spec(spec: StudySpec, cache=None):
    """An :class:`ExperimentEngine` configured as the spec asks."""
    from .experiments.parallel import ExperimentEngine

    return ExperimentEngine(
        jobs=spec.jobs, cache=cache if cache is not None else cache_for_spec(spec)
    )


def _apply_ambient_env(spec: StudySpec):
    """Export the spec's ambient knobs and resolve its fluid plan.

    A fluid traffic mode travels through the environment so engine
    pool workers build configs identical to the parent's (the plan
    also rides on each config; the export keeps programmatic spawns
    consistent).  Returns the resolved :class:`FluidPlan`.
    """
    import os

    from .fluid.plan import ENV_TRAFFIC_MODE, resolve_fluid_plan

    fluid = resolve_fluid_plan(
        mode=spec.traffic_mode, aggregator_fanout=spec.aggregator_fanout
    )
    if fluid.is_fluid:
        os.environ[ENV_TRAFFIC_MODE] = fluid.mode
    return fluid


def _manifest_dir(spec: StudySpec) -> Path:
    return Path(cache_root_for_spec(spec)) / "manifests"


# ---------------------------------------------------------------------------
# per-kind runners
# ---------------------------------------------------------------------------

def _run_figure(spec: StudySpec, engine, fluid, study_cls) -> StudyResult:
    from .experiments.reporting import figure_report

    if study_cls is None:
        from .experiments import reproduce

        study_cls = reproduce.Study
    number = spec.figure_number
    # keep the manifest inside the cache dir actually in use, so
    # `repro attrib` finds it there by default
    manifest_path = _manifest_dir(spec) / "study.json" if spec.resume else None
    study = study_cls(
        profile=spec.profile,
        rms=spec.rms_list,
        seed=spec.seed,
        sa_iterations=spec.sa_iterations,
        engine=engine,
        resume=spec.resume,
        manifest_path=manifest_path,
        speculate=spec.speculate,
        warm_start=spec.warm_start,
        fluid=fluid,
    )
    fig = study.figure(number)
    quantity = spec.quantity or FIGURE_QUANTITY[number]
    precision = _PRECISION["figure"] if spec.precision is None else spec.precision
    report = figure_report(fig, quantity, precision=precision)
    return StudyResult("figure", spec, report, data=fig, manifest_path=manifest_path)


def _run_compare(spec: StudySpec, engine, fluid, study_cls) -> StudyResult:
    from .experiments.config import PROFILES, SimulationConfig
    from .experiments.reporting import format_table
    from .rms.registry import get_rms, rms_names
    from .telemetry.timeseries import resolve_monitor_plan

    extra = {} if spec.faults is None else {"faults": spec.faults}
    # REPRO_SERIES* knobs attach a monitoring plan ambiently; a passive
    # plan records streams without perturbing the printed table
    monitor = resolve_monitor_plan()
    if monitor.is_enabled:
        extra["monitor"] = monitor
    if fluid.is_fluid:
        extra["fluid"] = fluid
    profile = PROFILES[spec.profile]
    names = spec.rms_list or rms_names()
    configs = [
        SimulationConfig(
            rms=rms,
            n_schedulers=profile.base_schedulers,
            n_resources=profile.base_resources,
            workload_rate=0.0067 * profile.base_resources / 24.0,
            update_interval=40.0 if rms == "CENTRAL" else 8.5,
            horizon=profile.horizon,
            seed=spec.seed,
            **extra,
        )
        for rms in names
    ]
    # the designs are independent runs: one engine batch
    metrics = engine.run_many(configs)
    rows = [
        [rms, get_rms(rms).mechanism, m.efficiency, m.record.G, m.success_rate]
        for rms, m in zip(names, metrics)
    ]
    precision = _PRECISION["compare"] if spec.precision is None else spec.precision
    report = format_table(
        ["RMS", "mechanism", "E", "G", "success"], rows, precision=precision
    )
    return StudyResult("compare", spec, report, data=rows)


def _run_plan_study(spec: StudySpec, engine, fluid, study_cls) -> StudyResult:
    """``faults``, ``series`` and ``trace``: one Case-1 plan study."""
    from .experiments.config import PROFILES
    from .experiments.planstudy import PLAN_KINDS, run_plan_study, study_report

    kind = PLAN_KINDS[spec.kind]
    manifest_path = _manifest_dir(spec) / f"{spec.kind}.json"
    result = run_plan_study(
        spec.kind,
        kind.resolve(spec, PROFILES[spec.profile]),
        profile=spec.profile,
        rms=spec.rms_list,
        seed=spec.seed,
        sweep_intervals=spec.probe_intervals[1:],
        engine=engine,
        manifest_path=manifest_path,
        fluid=fluid,
        faults=spec.faults if kind.takes_fault_plan else None,
    )
    precision = _PRECISION[spec.kind] if spec.precision is None else spec.precision
    report = study_report(result, precision=precision)
    return StudyResult(spec.kind, spec, report, data=result,
                       manifest_path=manifest_path)


_RUNNERS = {
    "figure": _run_figure,
    "compare": _run_compare,
    "faults": _run_plan_study,
    "series": _run_plan_study,
    "trace": _run_plan_study,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_study(spec: StudySpec, engine=None, study_cls=None) -> StudyResult:
    """Execute a :class:`StudySpec` locally and return its result.

    ``engine`` lets callers supply a preconfigured
    :class:`ExperimentEngine` (the CLI does, so its flags and stubs keep
    working); by default an engine and run cache are built from
    the spec and closed afterwards.  ``study_cls`` overrides the
    ``figure`` kind's ``Study`` class (test seam).
    """
    from .experiments.config import PROFILES

    if spec.profile not in PROFILES:
        raise KeyError(f"unknown profile {spec.profile!r}; valid: {sorted(PROFILES)}")
    fluid = _apply_ambient_env(spec)
    own_engine = engine is None
    if own_engine:
        engine = engine_for_spec(spec)
    try:
        return _RUNNERS[spec.kind](spec, engine, fluid, study_cls)
    finally:
        if own_engine:
            engine.close()


def submit_study(
    spec: StudySpec,
    address: Tuple[str, int],
    timeout: Optional[float] = None,
) -> StudyResult:
    """Submit a spec to a ``repro serve`` coordinator and await the result.

    Blocks until the coordinator reports completion (or ``timeout``
    seconds elapse), then returns a :class:`StudyResult` whose
    ``report`` matches a local run byte-for-byte.  ``data`` is ``None``
    — the in-memory result objects stay on the coordinator; fetch
    numbers from the shared cache/manifest instead.
    """
    from .fabric.client import submit

    return submit(spec, address, timeout=timeout)
