"""Workloads, timed passes and correctness checks of the end-to-end benchmark.

A workload is a list of operations generated from ``--seed``: one
simulation (``run_simulation``) or one single-design figure-2 study
(``repro.api.run_study``).  A *pass* runs every operation once, on inputs
derived from ``(seed, pass index, operation)``, so no two operations of a
run share an input and nothing one pass computes can be reused by the
next.  A run repeats passes until its time budget is spent and reports
medians over passes.

Times are normalised by the messages a pass simulated.  That count is
fixed by the inputs and the science (a change that alters it fails the
digest gate), so for one seed the normalised time moves exactly with
wall time, while across seeds it cancels the differences in how much
traffic each seed's inputs generate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
#: scratch space of one run (study caches, telemetry); removed at exit
WORK_DIR = BENCH_DIR / ".work"
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: seeds whose pass-0 digests are recorded in ``expected.json``
EXPECTED_SEEDS = (7, 11)

#: the seven designs, in paper order (a literal, so the workload lists do
#: not depend on importing the program)
RMS = ("CENTRAL", "LOWEST", "RESERVE", "AUCTION", "S-I", "R-I", "Sy-I")
#: annealing budget of each figure-2 study (the ci profile default is 10;
#: one iteration keeps a pass of seven studies near 22 s on 2 CPUs)
STUDY_SA_ITERATIONS = 1
#: pool workers of each study (``repro figure 2 --jobs 2``)
STUDY_JOBS = 2


def derive_seed(seed: int, *parts) -> int:
    """A program seed for one operation, fixed by ``seed`` and ``parts``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % (2**31 - 1)


def digest(payload) -> str:
    """Short content hash of a JSON-able payload (floats kept exactly)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cpu_seconds() -> float:
    """User+system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    """One operation: its cost, its simulated messages and its digest."""

    label: str
    wall: float = 0.0
    cpu: float = 0.0
    msgs: int = 0
    digest: str = ""
    error: Optional[str] = None


@dataclass
class PassResult:
    ops: List[OpResult] = field(default_factory=list)
    #: wall clock of the whole pass, bookkeeping included
    duration: float = 0.0

    def _ok(self) -> List[OpResult]:
        return [op for op in self.ops if op.error is None]

    @property
    def wall(self) -> float:
        return math.fsum(op.wall for op in self._ok())

    @property
    def cpu(self) -> float:
        return math.fsum(op.cpu for op in self._ok())

    @property
    def msgs(self) -> int:
        return sum(op.msgs for op in self._ok())

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


# ---------------------------------------------------------------------------
# instrumentation that is on in every run
# ---------------------------------------------------------------------------

class BuildProbe:
    """Times every ``build_system`` call made in this process.

    ``run_simulation`` looks ``build_system`` up in its module at call
    time, so replacing the module attribute reaches every simulation,
    including the ones an engine runs inline.  The last built system is
    kept so the caller can read its counters after the run.
    """

    def __init__(self) -> None:
        from repro.experiments import runner

        self.times: List[float] = []
        self.system = None
        self._original = original = runner.build_system

        def build_system(config):
            t0 = time.perf_counter()
            system = original(config)
            self.times.append(time.perf_counter() - t0)
            self.system = system
            return system

        runner.build_system = build_system

    def take_system(self):
        system, self.system = self.system, None
        return system

    def close(self) -> None:
        from repro.experiments import runner

        runner.build_system = self._original


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _case1(profile: str, rms: str, k: float, seed: int, **plans):
    from repro.experiments.cases import get_case
    from repro.experiments.config import PROFILES

    return get_case(1).config_for(rms, k, PROFILES[profile], seed=seed, **plans)


def _sim_problem(metrics) -> Optional[str]:
    """Why a run's outputs cannot be right, or ``None``."""
    r = metrics.record
    if not all(math.isfinite(v) and v >= 0.0 for v in (r.F, r.G, r.H)) or r.F <= 0.0:
        return f"implausible F/G/H {r.F!r}/{r.G!r}/{r.H!r}"
    if not 0 < metrics.jobs_submitted or metrics.jobs_successful > metrics.jobs_submitted:
        return f"implausible job counts {metrics.jobs_submitted}/{metrics.jobs_successful}"
    return None


class Workload:
    """A named list of operations generated from a seed."""

    name = ""
    rms: Tuple[str, ...] = RMS
    #: golden operations a run on a seed without digests reruns and checks
    reference_ops = len(RMS)

    def inputs(self, seed: int, p: int) -> List[Tuple[str, int]]:
        """``(design, program seed)`` of every operation of pass ``p``.

        The seed ignores the workload, so discrete-full and observed-full
        simulate identical inputs for one ``--seed``.
        """
        return [(rms, derive_seed(seed, p, rms)) for rms in self.rms]

    def run_op(self, rms: str, seed: int, probe: BuildProbe, tracer=None) -> OpResult:
        raise NotImplementedError

    def warm_up(self, probe: BuildProbe) -> None:
        """One small untimed simulation, so imports and first-call
        set-up are paid before timing."""
        from repro.experiments import runner

        runner.run_simulation(_case1("ci", "LOWEST", 1, 1))
        probe.take_system()


class SimWorkload(Workload):
    """Case-1 simulations run in-process, serially, with no cache."""

    def __init__(self, name: str, profile: str = "full", k: float = 1, rms=RMS,
                 plans=None, observed: bool = False) -> None:
        self.name = name
        self.profile = profile
        self.k = k
        self.rms = tuple(rms)
        self.plans = plans or (lambda: {})
        self.observed = observed

    def _simulate(self, config, probe, tracer, tag):
        from repro.experiments import runner

        gc.collect()
        if tracer is not None:
            tracer.tag = tag
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        metrics = runner.run_simulation(config)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        if tag == "twin":
            probe.times.pop()  # the reference run is not the workload's set-up
        system = probe.take_system()
        if tracer is not None:
            tracer.observe_sim(metrics, system)
        return metrics, wall, cpu

    @staticmethod
    def _digest(metrics) -> str:
        return digest({
            "F": metrics.record.F,
            "G": metrics.record.G,
            "H": metrics.record.H,
            "jobs_submitted": metrics.jobs_submitted,
            "jobs_successful": metrics.jobs_successful,
            "messages_sent": metrics.messages_sent,
        })

    def run_op(self, rms, seed, probe, tracer=None):
        op = OpResult(f"{rms}@{seed}")
        try:
            twin = None
            if self.observed:
                metrics, _, _ = self._simulate(
                    _case1(self.profile, rms, self.k, seed), probe, tracer, "twin"
                )
                twin = self._digest(metrics)
            metrics, op.wall, op.cpu = self._simulate(
                _case1(self.profile, rms, self.k, seed, **self.plans()), probe, tracer, "main"
            )
            op.digest = self._digest(metrics)
            op.msgs = metrics.messages_sent
            op.error = _sim_problem(metrics)
            if self.observed and op.error is None:
                if metrics.series is None or metrics.trace is None:
                    op.error = "observed run carried no series/trace payload"
                elif op.digest != twin:
                    op.error = f"observed digest {op.digest} != discrete twin {twin}"
        except Exception as exc:  # one failed operation must not end the run
            op.error = f"{type(exc).__name__}: {exc}"
        return op


def observed_plans() -> Dict:
    """Every passive hook consumer on: series, probes and full tracing."""
    from repro.telemetry.timeseries import MonitorPlan
    from repro.telemetry.tracing import TracePlan

    return {
        "monitor": MonitorPlan(series=True, window=500.0, probe_interval=100.0, charge_rate=0.0),
        "trace": TracePlan(sample=1.0, charge_rate=0.0),
    }


class StudyWorkload(Workload):
    """Figure-2 studies (Case 1, ci profile), one design per study.

    Each study gets a fresh cache directory, writes a resume manifest
    and runs with two pool workers, like ``repro figure 2 --jobs 2
    --resume``.  Giving each design its own seed makes the seven studies
    of a pass independent samples of the study's cost.
    """

    name = "study-fig2"
    #: the CENTRAL study (~2 s); the designs' science is gated by the simulations
    reference_ops = 1

    def spec(self, rms: str, seed: int, cache_dir: Path):
        from repro.api import StudySpec

        return StudySpec(
            kind="figure", figure=2, profile="ci", rms=(rms,), seed=seed,
            sa_iterations=STUDY_SA_ITERATIONS, jobs=STUDY_JOBS,
            cache_dir=str(cache_dir), resume=True,
        )

    def run_op(self, rms, seed, probe, tracer=None):
        import repro.api as api
        from repro.experiments.parallel import RunCache

        op = OpResult(f"{rms}@{seed}")
        cache_dir = WORK_DIR / f"study-{rms}-{seed}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        spec = self.spec(rms, seed, cache_dir)
        try:
            gc.collect()
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            result = api.run_study(spec)
            op.wall = time.perf_counter() - t0
            op.cpu = cpu_seconds() - c0
            probe.take_system()
            points = result.data.series[rms].result.points
            op.digest = digest({
                "points": [
                    {"scale": pt.scale, "settings": pt.settings, "F": pt.record.F,
                     "G": pt.record.G, "H": pt.record.H, "feasible": pt.feasible}
                    for pt in points
                ],
                "G": [pt.record.G for pt in points],
            })
            entries = RunCache(root=cache_dir).entry_bytes()
            runs = [json.loads(blob) for blob in entries.values()]
            op.msgs = sum(r["metrics"]["messages_sent"] for r in runs if "metrics" in r)
            if tracer is not None:
                tracer.observe_study(sum(len(blob) for blob in entries.values()))
            if len(points) != 3 or not all(
                math.isfinite(pt.record.G) and pt.record.G > 0.0 for pt in points
            ):
                op.error = f"implausible tuned points {[pt.record.G for pt in points]}"
            else:
                op.error = self._resume_problem(spec, result.report, tracer)
        except Exception as exc:  # one failed operation must not end the run
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return op

    @staticmethod
    def _resume_problem(spec, report: str, tracer) -> Optional[str]:
        """A resumed rerun must run nothing and print the same table."""
        import repro.api as api

        if tracer is not None:
            tracer.recording = False
        engine = api.engine_for_spec(spec)
        try:
            again = api.run_study(spec, engine=engine)
        finally:
            engine.close()
            if tracer is not None:
                tracer.recording = True
        if engine.runs_executed or again.report != report:
            return f"resume reran {engine.runs_executed} simulations or changed the report"
        return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        StudyWorkload(),
        SimWorkload("discrete-full"),
        SimWorkload("observed-full", plans=observed_plans, observed=True),
    )
}


# ---------------------------------------------------------------------------
# passes, the run loop and the result line
# ---------------------------------------------------------------------------

def run_pass(workload: Workload, seed: int, p: int, probe: BuildProbe,
             tracer=None) -> PassResult:
    t0 = time.perf_counter()
    result = PassResult()
    for rms, op_seed in workload.inputs(seed, p):
        result.ops.append(workload.run_op(rms, op_seed, probe, tracer))
    result.duration = time.perf_counter() - t0
    return result


def load_expected() -> Dict:
    try:
        return json.loads(EXPECTED_PATH.read_text("utf-8"))
    except FileNotFoundError:
        return {}


def _collect(workload: Workload, seed: int, seconds: float, probe: BuildProbe, tracer):
    """Run the timed passes: ``(passes, traced repetitions, build times)``."""
    start = time.perf_counter()

    def fits(last: PassResult) -> bool:
        return time.perf_counter() - start + last.duration <= seconds

    passes = [run_pass(workload, seed, 0, probe)]
    builds = list(probe.times)
    traced: List[PassResult] = []
    if tracer is not None:
        while not traced or fits(traced[-1]):
            tracer.begin_rep(len(traced))
            traced.append(run_pass(workload, seed, 0, probe, tracer))
            tracer.end_rep(traced[-1])
    else:
        while fits(passes[-1]):
            probe.times.clear()
            passes.append(run_pass(workload, seed, len(passes), probe))
            builds.extend(probe.times)
    return passes, traced, builds


def _check(workload: Workload, seed: int, passes: List[PassResult],
           traced: List[PassResult], probe: BuildProbe) -> Optional[PassResult]:
    """Mark operations whose outputs are wrong; return the extra
    reference pass this took, if any.

    Pass 0 is held to the golden digests when ``seed`` has them;
    otherwise the first ``reference_ops`` operations of the first golden
    seed are rerun, untimed, and held to theirs.  Then determinism: each
    traced rerun of pass 0, or an untimed rerun of its first simulation.
    """
    expected = load_expected().get(workload.name, {})
    reference = None
    if str(seed) in expected:
        checked, golden = passes[0], expected[str(seed)]
    else:
        ref_seed = EXPECTED_SEEDS[0]
        inputs = workload.inputs(ref_seed, 0)[: workload.reference_ops]
        checked = reference = PassResult([workload.run_op(*item, probe) for item in inputs])
        golden = expected.get(str(ref_seed), [])
    for op, want in zip(checked.ops, golden):
        if op.error is None and op.digest != want:
            op.error = f"digest {op.digest} != expected {want}"
    for rep in traced:
        for ref, op in zip(passes[0].ops, rep.ops):
            if op.error is None and ref.error is None and op.digest != ref.digest:
                op.error = f"traced rerun digest {op.digest} != {ref.digest}"
    first = passes[0].ops[0]
    if not traced and isinstance(workload, SimWorkload) and first.error is None:
        again = workload.run_op(*workload.inputs(seed, 0)[0], probe)
        if again.error is not None or again.digest != first.digest:
            first.error = f"rerun gave {again.digest or again.error}, not {first.digest}"
    return reference


def measure(workload: Workload, seed: int, seconds: float, trace: bool = False,
            spans_path: Optional[Path] = None) -> Tuple[Dict, List[str]]:
    """Run one benchmark run; return the result line and failure notes.

    Untraced: passes 0, 1, ... while the next pass still fits in
    ``seconds`` (at least one).  Traced: pass 0 untraced, then pass 0's
    inputs again with the layer tracer on (at least once), so traced
    and untraced walls compare like for like.
    """
    probe = BuildProbe()
    tracer = None
    try:
        workload.warm_up(probe)
        probe.times.clear()
        if trace:
            from layertrace import Tracer

            tracer = Tracer(workload.name, engine_telemetry=isinstance(workload, StudyWorkload))
            tracer.install()
        passes, traced, builds = _collect(workload, seed, seconds, probe, tracer)
        reference = _check(workload, seed, passes, traced, probe)
        if tracer is not None:
            layers = tracer.layer_metrics(untraced_wall=passes[0].wall)
            if spans_path is not None:
                tracer.write_spans(spans_path)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.close()

    every = passes + traced + ([reference] if reference else [])
    attempted = sum(len(p.ops) for p in every)
    failed = sum(p.failed for p in every)
    notes = [f"{op.label}: {op.error}" for p in every for op in p.ops if op.error]
    if trace:
        metrics = layers
    else:
        timed = [p for p in passes if p.msgs > 0]
        metrics = {
            "wall_us_per_msg": (statistics.median(p.wall / p.msgs * 1e6 for p in timed), "us/msg"),
            "cpu_us_per_msg": (statistics.median(p.cpu / p.msgs * 1e6 for p in timed), "us/msg"),
            "setup_s": (statistics.median(builds), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        } if timed and builds else {}
    line = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return line, notes


def expected_digests(workload: Workload, seed: int) -> List[str]:
    """Pass-0 digests of ``seed`` (the ``--update-expected`` source)."""
    probe = BuildProbe()
    try:
        result = run_pass(workload, seed, 0, probe)
    finally:
        probe.close()
    bad = [f"{op.label}: {op.error}" for op in result.ops if op.error]
    if bad:
        raise RuntimeError("; ".join(bad))
    return [op.digest for op in result.ops]
