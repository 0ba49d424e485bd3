"""The tracked performance benchmark: ``repro bench-perf``.

Measures the three layers this codebase optimizes and writes them to
``BENCH_perf.json`` so the perf trajectory is recorded alongside the
code:

* **kernel** — raw event throughput (events/sec) of the simulation
  kernel in two cases: a self-scheduling *storm* (steady small heap:
  pure ``schedule``/``pop``/dispatch cost plus a lazy-cancel stream)
  and *fel*, the future-event-list scaling case (preload a large batch
  of events in arrival order — the workload-injection pattern — then
  drain).
* **sims** — end-to-end simulation throughput (sims/sec) on a
  representative configuration, through the same
  :func:`~repro.experiments.runner.run_simulation` every experiment
  uses.
* **study** — wall clock and per-scale tuner evaluation counts for a
  full isoefficiency measurement (one experiment case across the
  requested RMS designs), in three arms: the *baseline* serial tuner
  (cold-start walk, no speculation — the historical configuration), and
  the warm-started speculative tuner at ``jobs=1`` and ``jobs=N``.
  The arms run cache-free so the wall clocks are honest; the tuned
  points of the two speculative arms are compared and the report
  records whether they were identical (they must be — worker count may
  never change results).

The JSON is a *measurement record*, not a golden file: timings vary
with the machine, while every recorded tuned point and evaluation count
is deterministic for a fixed seed and flag set.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.annealing import AnnealingSchedule
from ..core.procedure import ScalabilityProcedure
from ..rms.registry import rms_names
from ..sim.kernel import Simulator
from .cases import get_case, make_batch_simulate, make_simulate
from .config import PROFILES, ScaleProfile, SimulationConfig
from .parallel import ExperimentEngine
from .reproduce import DEFAULT_SPECULATION_WIDTH
from .runner import run_simulation

__all__ = [
    "bench_fluid",
    "bench_kernel",
    "bench_kernel_fel",
    "bench_kernel_section",
    "bench_sims",
    "bench_study_arm",
    "run_bench",
    "render_report",
    "write_bench",
]

#: path the benchmark writes unless told otherwise
DEFAULT_OUTPUT = "BENCH_perf.json"
#: record format (4: one kernel, ``kernel`` maps case -> record)
BENCH_SCHEMA = 4


# ---------------------------------------------------------------------------
# Layer 1: kernel dispatch throughput
# ---------------------------------------------------------------------------

def bench_kernel(events: int = 200_000, fanout: int = 4) -> Dict:
    """Dispatch throughput of the bare DES kernel (events/sec).

    Runs a self-scheduling storm of ``fanout`` interleaved periodic
    chains plus a cancellation stream (so the event store sees pushes,
    pops, and lazy-cancel discards — the mix the real protocols
    produce), and reports how many events per wall-clock second the
    kernel retires.
    """
    sim = Simulator()
    state = {"left": events, "victim": None}

    def tick(lane: int) -> None:
        if state["left"] <= 0:
            return
        state["left"] -= 1
        # One cancellation per dispatched event on lane 0: schedule a
        # decoy and kill the previous one, exercising the lazy-cancel
        # path the protocols (timeouts, suppressed updates) lean on.
        if lane == 0:
            if state["victim"] is not None:
                sim.cancel(state["victim"])
            state["victim"] = sim.schedule(5.0, _noop)
        sim.schedule(1.0 + 0.1 * lane, tick, lane)

    def _noop() -> None:  # pragma: no cover - decoys never fire in-budget
        pass

    for lane in range(fanout):
        sim.schedule(0.1 * lane, tick, lane)
    t0 = time.perf_counter()
    sim.run(max_events=events)
    seconds = time.perf_counter() - t0
    return {
        "events": sim.events_executed,
        "seconds": round(seconds, 6),
        "events_per_sec": round(sim.events_executed / seconds) if seconds > 0 else None,
    }


def bench_kernel_fel(events: int = 1_000_000) -> Dict:
    """The future-event-list scaling case (events/sec, schedule + drain).

    Preloads ``events`` pending events in nondecreasing time order —
    exactly how the runner pre-schedules a workload's job arrivals —
    then drains the whole list: the million-pending-event regime, where
    the heap pays an O(log n) sift per event.
    """
    sim = Simulator()

    def _noop() -> None:
        pass

    t0 = time.perf_counter()
    for i in range(events):
        sim.schedule(i * 1e-3, _noop)
    sim.run()
    seconds = time.perf_counter() - t0
    return {
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds) if seconds > 0 else None,
    }


def bench_kernel_section(events: int = 200_000, fel_events: int = 1_000_000) -> Dict:
    """The kernel section of the bench record: ``{"storm": …, "fel": …}``."""
    return {
        "storm": bench_kernel(events=events),
        "fel": bench_kernel_fel(events=fel_events),
    }


# ---------------------------------------------------------------------------
# Layer 2: end-to-end simulation throughput
# ---------------------------------------------------------------------------

def bench_sims(profile: ScaleProfile, rms: str = "LOWEST", runs: int = 3, seed: int = 7) -> Dict:
    """End-to-end simulation throughput (sims/sec) on one base config."""
    configs = [
        SimulationConfig(
            rms=rms,
            n_schedulers=profile.base_schedulers,
            n_resources=profile.base_resources,
            workload_rate=profile.base_rate_per_resource * profile.base_resources,
            horizon=profile.horizon,
            drain=profile.drain,
            seed=seed + i,
        )
        for i in range(runs)
    ]
    t0 = time.perf_counter()
    for config in configs:
        run_simulation(config)
    seconds = time.perf_counter() - t0
    return {
        "rms": rms,
        "runs": runs,
        "seconds": round(seconds, 6),
        "sims_per_sec": round(runs / seconds, 4) if seconds > 0 else None,
    }


# ---------------------------------------------------------------------------
# Layer 2b: fluid traffic mode — event-count reduction at extreme scale
# ---------------------------------------------------------------------------

def _run_counting_events(config: SimulationConfig):
    """Run one simulation and return ``(metrics, kernel_events, seconds, system)``.

    Mirrors :func:`~repro.experiments.runner.run_simulation`'s loop but
    keeps the kernel in hand so the bench can read its dispatch counter
    (``RunMetrics`` deliberately does not carry it — event counts are a
    property of the executor, not of the measured system).
    """
    from ..grid.jobs import JobState
    from .runner import build_system, summarize

    t0 = time.perf_counter()
    system = build_system(config)
    sim = system.sim
    sim.run(until=config.horizon)
    deadline = config.horizon + config.drain
    step = max(200.0, config.horizon / 10.0)
    while sim.now < deadline and any(
        j.state != JobState.COMPLETED for j in system.jobs
    ):
        sim.run(until=min(deadline, sim.now + step))
    metrics = summarize(system)
    seconds = time.perf_counter() - t0
    return metrics, sim.events_executed, seconds, system


def bench_fluid(
    rms: str = "LOWEST",
    seed: int = 7,
    overlap_resources: int = 500,
    overlap_schedulers: int = 4,
    overlap_estimators: Optional[int] = None,
    extreme_profile: "str | ScaleProfile" = "extreme",
    extreme_scale: float = 4.0,
) -> Dict:
    """The fluid-traffic section: cross-validation plus extreme scale.

    Two measurements:

    * **overlap** — the largest scale where discrete mode is still
      tractable *and unsaturated*, run in *both* modes on the identical
      config.  Records the kernel-event counts, wall clocks, and the
      F/G/H agreement (F must be bit-identical; G/H within the
      documented tolerance), so the cross-validation contract is part
      of the tracked record.  The estimator plane is sized Case-3
      style (~8 resources per estimator by default) so discrete
      estimators keep up with the update flow — a saturated discrete
      estimator silently sheds work its fluid counterpart charges for,
      which would poison the G comparison.
    * **extreme** — the extreme-profile Case-1 point (1e5 resources at
      the default scale), fluid mode only; discrete mode there is
      projected from the overlap run's per-resource event density
      (status/keepalive traffic is O(k), so the extrapolation is
      linear in ``resources x horizon``).  The recorded
      ``event_reduction_vs_discrete`` is the headline number: modeled
      message flows per kernel event actually dispatched.
    """
    from ..fluid.plan import FluidPlan
    from .cases import get_case

    prof = (
        extreme_profile
        if isinstance(extreme_profile, ScaleProfile)
        else PROFILES[extreme_profile]
    )
    if overlap_estimators is None:
        overlap_estimators = -(-overlap_resources // 8)
    overlap_cfg = SimulationConfig(
        rms=rms,
        n_schedulers=overlap_schedulers,
        n_resources=overlap_resources,
        n_estimators=overlap_estimators,
        workload_rate=prof.base_rate_per_resource * overlap_resources,
        horizon=prof.horizon,
        drain=prof.drain,
        seed=seed,
    )
    d_metrics, d_events, d_seconds, _ = _run_counting_events(overlap_cfg)
    f_metrics, f_events, f_seconds, f_system = _run_counting_events(
        replace(overlap_cfg, fluid=FluidPlan(mode="fluid"))
    )

    def _delta_pct(base: float, cur: float) -> Optional[float]:
        # None = incomparable (zero base); infinities are not valid JSON
        if base == 0.0:
            return None
        return round(100.0 * (cur - base) / base, 3)

    overlap = {
        "rms": rms,
        "n_resources": overlap_resources,
        "n_schedulers": overlap_schedulers,
        "n_estimators": overlap_estimators,
        "horizon": prof.horizon,
        "discrete": {
            "kernel_events": d_events,
            "seconds": round(d_seconds, 3),
        },
        "fluid": {
            "kernel_events": f_events,
            "seconds": round(f_seconds, 3),
            "stats": f_system.fluid.stats(),
        },
        "event_reduction": (
            round(d_events / f_events, 1) if f_events else None
        ),
        "speedup": round(d_seconds / f_seconds, 2) if f_seconds > 0 else None,
        "F_identical": d_metrics.record.F == f_metrics.record.F,
        "G_delta_pct": _delta_pct(d_metrics.record.G, f_metrics.record.G),
        "H_delta_pct": _delta_pct(d_metrics.record.H, f_metrics.record.H),
    }

    case = get_case(1)
    extreme_cfg = case.config_for(
        rms, extreme_scale, prof, seed=seed, fluid=FluidPlan(mode="fluid")
    )
    e_metrics, e_events, e_seconds, e_system = _run_counting_events(extreme_cfg)
    stats = e_system.fluid.stats()
    # Discrete kernel events scale ~linearly in resources x horizon at a
    # fixed per-resource rate (the status/keepalive storms dominate), so
    # the overlap run's event density projects the intractable run.
    density = d_events / (overlap_resources * prof.horizon)
    projected = density * extreme_cfg.n_resources * prof.horizon
    extreme = {
        "profile": prof.name,
        "scale": extreme_scale,
        "n_resources": extreme_cfg.n_resources,
        "n_schedulers": extreme_cfg.n_schedulers,
        "fluid": {
            "kernel_events": e_events,
            "seconds": round(e_seconds, 3),
            "sims_per_sec": round(1.0 / e_seconds, 5) if e_seconds > 0 else None,
            "stats": stats,
        },
        "success_rate": round(e_metrics.success_rate, 4),
        "G": round(e_metrics.record.G, 1),
        "discrete_events_projected": round(projected),
        "event_reduction_vs_discrete": (
            round(projected / e_events, 1) if e_events else None
        ),
    }
    return {"overlap": overlap, "extreme": extreme}


# ---------------------------------------------------------------------------
# Layer 3: the isoefficiency study, per arm
# ---------------------------------------------------------------------------

def bench_study_arm(
    profile: ScaleProfile,
    rms_list: Sequence[str],
    case_id: int,
    seed: int,
    sa_iterations: int,
    jobs: int,
    warm_start: bool,
    speculation: int,
) -> Dict:
    """One full study measurement under one (jobs, flags) combination.

    Every arm runs cache-free (fresh engine, no :class:`RunCache`), so
    its wall clock reflects real simulation work, and records the tuned
    settings per scale — the cross-arm identity check the determinism
    contract demands.
    """
    case = get_case(case_id)
    evaluations_by_scale: Dict[float, int] = {}
    tuned: Dict[str, List[Dict[str, float]]] = {}
    total_evaluations = 0
    t0 = time.perf_counter()
    with ExperimentEngine(jobs=jobs, cache=None) as engine:
        for rms in rms_list:
            memo: Dict = {}
            simulate = make_simulate(case, rms, profile, seed=seed, memo=memo, engine=engine)
            batch = make_batch_simulate(case, rms, profile, seed=seed, memo=memo, engine=engine)
            procedure = ScalabilityProcedure(
                simulate,
                case.enabler_space(),
                path=case.path(profile),
                warm_start=warm_start,
                schedule=AnnealingSchedule(iterations=sa_iterations, t0=0.5),
                seed=seed,
                batch_simulate=batch,
                speculation=speculation,
            )
            result = procedure.run(name=rms)
            tuned[rms] = [dict(p.settings) for p in result.points]
            for k, n in procedure.tuner.evaluations_by_scale().items():
                evaluations_by_scale[k] = evaluations_by_scale.get(k, 0) + n
            total_evaluations += procedure.tuner.evaluations
    seconds = time.perf_counter() - t0
    return {
        "jobs": jobs,
        "warm_start": warm_start,
        "speculation": speculation,
        "seconds": round(seconds, 3),
        "simulations": total_evaluations,
        "evaluations_by_scale": {str(k): n for k, n in sorted(evaluations_by_scale.items())},
        "tuned": tuned,
    }


# ---------------------------------------------------------------------------
# The whole benchmark
# ---------------------------------------------------------------------------

def run_bench(
    profile: "str | ScaleProfile" = "ci",
    rms: Optional[Sequence[str]] = None,
    case_id: int = 1,
    seed: int = 7,
    sa_iterations: Optional[int] = None,
    jobs: int = 4,
    speculation: int = DEFAULT_SPECULATION_WIDTH,
    kernel_events: int = 200_000,
    fel_events: int = 1_000_000,
    include_fluid: bool = True,
) -> Dict:
    """Run every layer and return the ``BENCH_perf.json`` payload.

    Schema 3 added the ``fluid`` section (cross-validated event-count
    reduction at extreme scale); schema 4 records one kernel, so its
    ``kernel`` section maps case name to record.
    ``include_fluid=False`` drops that section — the extreme-scale run
    is minutes of wall clock a quick kernel-only check may not want.
    """
    prof = profile if isinstance(profile, ScaleProfile) else PROFILES[profile]
    rms_list = list(rms) if rms is not None else rms_names()
    iters = sa_iterations if sa_iterations is not None else prof.sa_iterations

    kernel = bench_kernel_section(events=kernel_events, fel_events=fel_events)
    sims = bench_sims(prof, rms=rms_list[0], seed=seed)
    # The fluid section always runs LOWEST: the cross-validation
    # contract (F bit-identical) is pinned to designs whose placements
    # are not delivery-timing-sensitive — CENTRAL diverges there by
    # documented design (EXPERIMENTS.md "Extreme scale") and its single
    # decision point saturates at 1e5 resources anyway.
    fluid = bench_fluid(seed=seed) if include_fluid else None

    baseline = bench_study_arm(
        prof, rms_list, case_id, seed, iters,
        jobs=1, warm_start=False, speculation=1,
    )
    arms = [
        bench_study_arm(
            prof, rms_list, case_id, seed, iters,
            jobs=j, warm_start=True, speculation=speculation,
        )
        for j in ([1, jobs] if jobs != 1 else [1])
    ]
    identical = all(arm["tuned"] == arms[0]["tuned"] for arm in arms[1:])
    speedups = {
        f"jobs={arm['jobs']}": (
            round(baseline["seconds"] / arm["seconds"], 3) if arm["seconds"] > 0 else None
        )
        for arm in arms
    }
    payload = {
        "schema": BENCH_SCHEMA,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": _cpu_count(),
        },
        "profile": prof.name,
        "case": case_id,
        "seed": seed,
        "sa_iterations": iters,
        "rms": rms_list,
        "kernel": kernel,
        "sims": sims,
        "study": {
            "baseline": baseline,
            "arms": arms,
            "speedup_vs_baseline": speedups,
            "tuned_points_identical_across_jobs": identical,
        },
    }
    if fluid is not None:
        payload["fluid"] = fluid
    return payload


def _cpu_count() -> Optional[int]:
    import os

    return os.cpu_count()


def render_report(payload: Dict) -> str:
    """A short human-readable summary of one benchmark payload."""
    study = payload["study"]
    base = study["baseline"]
    lines = [
        f"perf benchmark — profile={payload['profile']} case={payload['case']} "
        f"seed={payload['seed']} rms={','.join(payload['rms'])}",
    ]
    lines.append(
        "kernel: "
        + ", ".join(
            f"{case} {rec['events_per_sec']:,} ev/s ({rec['events']:,} events)"
            for case, rec in payload["kernel"].items()
        )
    )
    lines.append(
        f"sims:   {payload['sims']['sims_per_sec']} sims/sec ({payload['sims']['rms']} base config)"
    )
    fluid = payload.get("fluid")
    if fluid:
        ov, ex = fluid["overlap"], fluid["extreme"]
        lines.append(
            f"fluid overlap ({ov['n_resources']:,} resources): "
            f"{ov['event_reduction']}x fewer kernel events, {ov['speedup']}x faster, "
            f"F identical: {'yes' if ov['F_identical'] else 'NO — BUG'}, "
            f"G {ov['G_delta_pct']:+g}%, H {ov['H_delta_pct']:+g}%"
        )
        lines.append(
            f"fluid extreme ({ex['n_resources']:,} resources, {ex['rms'] if 'rms' in ex else ov['rms']}): "
            f"{ex['fluid']['kernel_events']:,} kernel events in {ex['fluid']['seconds']}s "
            f"— {ex['event_reduction_vs_discrete']}x below projected discrete"
        )
    lines.append(
        f"study baseline (serial tuner, cold start): {base['seconds']:.2f}s, "
        f"{base['simulations']} simulations"
    )
    for arm in study["arms"]:
        speedup = study["speedup_vs_baseline"][f"jobs={arm['jobs']}"]
        lines.append(
            f"study warm+speculative W={arm['speculation']} jobs={arm['jobs']}: "
            f"{arm['seconds']:.2f}s, {arm['simulations']} simulations "
            f"({speedup}x vs baseline)"
        )
    lines.append(
        "tuned points identical across jobs: "
        + ("yes" if study["tuned_points_identical_across_jobs"] else "NO — BUG")
    )
    return "\n".join(lines)


def write_bench(payload: Dict, output: "str | Path" = DEFAULT_OUTPUT) -> Path:
    """Write the payload to ``output`` (pretty-printed, trailing newline)."""
    path = Path(output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path
