"""The perf-regression watchdog: ``repro bench-check``.

``repro bench-perf`` writes a tracked measurement record
(``BENCH_perf.json``).  This module turns that record into a watchdog:
run a fresh benchmark under the *baseline's own parameters* (profile,
case, seed, annealing budget, RMS set) and compare, metric by metric,
with a clear pass / warn / fail verdict.

Two metric classes, two comparison rules:

* **Timing metrics** (kernel events/sec, sims/sec, study wall clocks)
  vary with the machine, so they are compared by *ratio* against two
  configurable tolerances: a regression beyond ``warn_tolerance``
  (default 10%) warns, beyond ``fail_tolerance`` (default 25%) fails.
  Improvements never warn.  Each kernel case (``storm``, ``fel``) is
  compared against its own baseline.  A record of any other schema
  than the current one (4: one kernel) is rejected on load with a
  one-line error — regenerate it with ``repro bench-perf``.
  The fluid section's timing is ``fluid.timed.seconds``, the median of
  repeated fluid runs at the extreme profile's 25k-resource point;
  the fluid-vs-discrete ``speedup`` of the small overlap config is
  reported but not gated (it divides two sub-second wall clocks).
* **Deterministic counts** (simulation counts, per-scale evaluation
  counts, the tuned settings themselves, the cross-worker identity
  flag, the fluid runs' kernel-event and flow counts) must match the
  baseline **exactly** — any drift means behavior changed, not just
  speed, and is always a failure.  Sections whose
  parameters differ from the baseline's (e.g. a CI smoke run over a
  subset of RMS designs) are *skipped*, not failed: timings across
  different workloads are not comparable.  Likewise a ``fluid``
  section the baseline lacks (``bench-perf --no-fluid``) is skipped —
  a baseline is not evidence of a regression in a measurement it
  never made, and the fresh benchmark does not even run that section.

``--warn-only`` downgrades the exit code (never the report) so CI can
surface regressions without gating merges on a noisy runner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from .benchperf import BENCH_SCHEMA

__all__ = [
    "CheckResult",
    "DEFAULT_FAIL_TOLERANCE",
    "DEFAULT_WARN_TOLERANCE",
    "compare_bench",
    "load_baseline",
    "render_checks",
    "run_current_bench",
    "worst_status",
]

#: regression fraction beyond which a timing metric warns
DEFAULT_WARN_TOLERANCE = 0.10
#: regression fraction beyond which a timing metric fails
DEFAULT_FAIL_TOLERANCE = 0.25

_STATUS_ORDER = {"pass": 0, "skip": 0, "warn": 1, "fail": 2}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one metric comparison."""

    metric: str
    status: str          # "pass" | "warn" | "fail" | "skip"
    detail: str


def load_baseline(path: "str | Path") -> Dict[str, Any]:
    """Read a ``BENCH_perf.json`` payload of the current schema."""
    payload = json.loads(Path(path).read_text("utf-8"))
    if "kernel" not in payload or "study" not in payload:
        raise ValueError(f"{path} does not look like a bench-perf record")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path} is a schema-{payload.get('schema')} bench-perf record; "
            f"regenerate it with `repro bench-perf` (schema {BENCH_SCHEMA})"
        )
    return payload


def run_current_bench(
    baseline: Dict[str, Any],
    jobs: Optional[int] = None,
    rms: Optional[List[str]] = None,
    profile: Optional[str] = None,
) -> Dict[str, Any]:
    """A fresh benchmark under the baseline's recorded parameters.

    ``jobs`` / ``rms`` / ``profile`` override the baseline's values (a
    CI runner may have fewer cores than the machine that wrote the
    baseline); the comparison then skips the sections that are no
    longer parameter-compatible instead of comparing apples to oranges.
    """
    from .benchperf import run_bench

    arm_jobs = [a.get("jobs", 1) for a in baseline.get("study", {}).get("arms", [])]
    storm = baseline["kernel"].get("storm", {})
    fel = baseline["kernel"].get("fel", {})
    return run_bench(
        profile=profile if profile is not None else baseline.get("profile", "ci"),
        rms=rms if rms is not None else baseline.get("rms"),
        case_id=baseline.get("case", 1),
        seed=baseline.get("seed", 7),
        sa_iterations=baseline.get("sa_iterations"),
        jobs=jobs if jobs is not None else (max(arm_jobs) if arm_jobs else 4),
        kernel_events=storm.get("events", 200_000),
        fel_events=fel.get("events", 1_000_000),
        # A baseline without the fluid section has nothing to
        # compare it against — skip the minutes-long extreme-scale run.
        include_fluid="fluid" in baseline,
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _timing_check(
    metric: str,
    base: Optional[float],
    cur: Optional[float],
    higher_is_better: bool,
    warn_tol: float,
    fail_tol: float,
) -> CheckResult:
    if not base or not cur or base <= 0 or cur <= 0 or math.isnan(base) or math.isnan(cur):
        return CheckResult(metric, "skip", "missing or degenerate measurement")
    # regression = fraction of the baseline's performance lost
    regression = (base - cur) / base if higher_is_better else (cur - base) / base
    direction = "slower" if regression > 0 else "faster"
    detail = (
        f"baseline {base:g}, current {cur:g} "
        f"({abs(regression):.1%} {direction})"
    )
    if regression > fail_tol:
        return CheckResult(metric, "fail", detail + f" — beyond fail tolerance {fail_tol:.0%}")
    if regression > warn_tol:
        return CheckResult(metric, "warn", detail + f" — beyond warn tolerance {warn_tol:.0%}")
    return CheckResult(metric, "pass", detail)


def _exact_check(metric: str, base: Any, cur: Any) -> CheckResult:
    if base == cur:
        shown = repr(base)
        detail = (
            f"matches baseline ({shown})" if len(shown) <= 60 else "matches baseline"
        )
        return CheckResult(metric, "pass", detail)
    return CheckResult(
        metric,
        "fail",
        f"baseline {base!r} != current {cur!r} — deterministic value drifted "
        "(behavior changed, not just speed)",
    )


def _study_params(payload: Dict[str, Any]) -> tuple:
    return (
        payload.get("profile"),
        payload.get("case"),
        payload.get("seed"),
        payload.get("sa_iterations"),
        tuple(payload.get("rms") or ()),
    )


def compare_bench(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    warn_tolerance: float = DEFAULT_WARN_TOLERANCE,
    fail_tolerance: float = DEFAULT_FAIL_TOLERANCE,
) -> List[CheckResult]:
    """Compare a fresh bench record against the tracked baseline."""
    if not (0.0 < warn_tolerance <= fail_tolerance):
        raise ValueError("tolerances must satisfy 0 < warn <= fail")
    checks: List[CheckResult] = []

    # -- kernel: per case, each against its own baseline; a case is
    #    parameter-compatible iff its event budget matches --------------
    b_cases, c_cases = baseline.get("kernel") or {}, current.get("kernel") or {}
    for case, b_rec in sorted(b_cases.items()):
        name = f"kernel.{case}.events_per_sec"
        c_rec = c_cases.get(case)
        if c_rec is None:
            checks.append(CheckResult(name, "skip", "no matching case in current record"))
        elif b_rec.get("events") != c_rec.get("events"):
            checks.append(CheckResult(name, "skip", "event budgets differ"))
        else:
            checks.append(
                _timing_check(
                    name,
                    b_rec.get("events_per_sec"),
                    c_rec.get("events_per_sec"),
                    True,
                    warn_tolerance,
                    fail_tolerance,
                )
            )

    # -- sims: same base config iff rms/runs and the profile match ------
    b_sims, c_sims = baseline.get("sims", {}), current.get("sims", {})
    sims_compatible = (
        b_sims.get("rms") == c_sims.get("rms")
        and b_sims.get("runs") == c_sims.get("runs")
        and baseline.get("profile") == current.get("profile")
        and baseline.get("seed") == current.get("seed")
    )
    if sims_compatible:
        checks.append(
            _timing_check(
                "sims.sims_per_sec",
                b_sims.get("sims_per_sec"),
                c_sims.get("sims_per_sec"),
                True,
                warn_tolerance,
                fail_tolerance,
            )
        )
    else:
        checks.append(CheckResult("sims.sims_per_sec", "skip", "base configs differ"))

    # -- fluid: skip when the baseline lacks the section -----------------
    b_fluid, c_fluid = baseline.get("fluid"), current.get("fluid")
    if b_fluid is None:
        checks.append(
            CheckResult(
                "fluid",
                "skip",
                "section absent from baseline record "
                "— regenerate the baseline to start tracking it",
            )
        )
    elif c_fluid is None:
        checks.append(
            CheckResult("fluid", "skip", "section absent from current record")
        )
    else:
        b_ov, c_ov = b_fluid.get("overlap", {}), c_fluid.get("overlap", {})
        ov_params = ("rms", "n_resources", "n_schedulers", "n_estimators", "horizon")
        if any(b_ov.get(k) != c_ov.get(k) for k in ov_params):
            checks.append(
                CheckResult("fluid.overlap", "skip", "overlap configs differ")
            )
        else:
            checks.append(
                _exact_check(
                    "fluid.overlap.F_identical", True, bool(c_ov.get("F_identical"))
                )
            )
            checks.append(
                _exact_check(
                    "fluid.overlap.kernel_events",
                    {
                        "discrete": (b_ov.get("discrete") or {}).get("kernel_events"),
                        "fluid": (b_ov.get("fluid") or {}).get("kernel_events"),
                    },
                    {
                        "discrete": (c_ov.get("discrete") or {}).get("kernel_events"),
                        "fluid": (c_ov.get("fluid") or {}).get("kernel_events"),
                    },
                )
            )
            checks.append(
                _exact_check(
                    "fluid.overlap.event_reduction",
                    b_ov.get("event_reduction"),
                    c_ov.get("event_reduction"),
                )
            )
            checks.append(
                _exact_check(
                    "fluid.overlap.stats",
                    (b_ov.get("fluid") or {}).get("stats"),
                    (c_ov.get("fluid") or {}).get("stats"),
                )
            )
            # No check on the overlap's `speedup`: it divides two
            # sub-second wall clocks, build included, so it moves with
            # the host's noise and with whichever mode a change touches.
            # The record reports it; fluid.timed is the fluid timing.
        b_t, c_t = b_fluid.get("timed"), c_fluid.get("timed")
        t_params = ("profile", "scale", "n_resources", "n_schedulers", "repeats")
        if b_t is None or c_t is None:
            checks.append(
                CheckResult(
                    "fluid.timed",
                    "skip",
                    f"section absent from {'baseline' if b_t is None else 'current'} record",
                )
            )
        elif any(b_t.get(k) != c_t.get(k) for k in t_params):
            checks.append(CheckResult("fluid.timed", "skip", "timed configs differ"))
        else:
            checks.append(
                _exact_check(
                    "fluid.timed.counts",
                    {"kernel_events": b_t.get("kernel_events"), **(b_t.get("stats") or {})},
                    {"kernel_events": c_t.get("kernel_events"), **(c_t.get("stats") or {})},
                )
            )
            checks.append(
                _timing_check(
                    "fluid.timed.seconds",
                    b_t.get("seconds"),
                    c_t.get("seconds"),
                    False,
                    warn_tolerance,
                    fail_tolerance,
                )
            )
        b_ex, c_ex = b_fluid.get("extreme", {}), c_fluid.get("extreme", {})
        if any(
            b_ex.get(k) != c_ex.get(k) for k in ("profile", "scale", "n_resources")
        ):
            checks.append(
                CheckResult("fluid.extreme", "skip", "extreme configs differ")
            )
        else:
            checks.append(
                _exact_check(
                    "fluid.extreme.kernel_events",
                    (b_ex.get("fluid") or {}).get("kernel_events"),
                    (c_ex.get("fluid") or {}).get("kernel_events"),
                )
            )
            checks.append(
                _timing_check(
                    "fluid.extreme.event_reduction_vs_discrete",
                    b_ex.get("event_reduction_vs_discrete"),
                    c_ex.get("event_reduction_vs_discrete"),
                    True,
                    warn_tolerance,
                    fail_tolerance,
                )
            )

    # -- study: full parameter identity required ------------------------
    if _study_params(baseline) != _study_params(current):
        checks.append(
            CheckResult(
                "study",
                "skip",
                "study parameters differ (profile/case/seed/sa_iterations/rms) "
                "— wall clocks and counts not comparable",
            )
        )
        return checks

    b_study, c_study = baseline.get("study", {}), current.get("study", {})
    b_base, c_base = b_study.get("baseline", {}), c_study.get("baseline", {})
    checks.append(
        _timing_check(
            "study.baseline.seconds",
            b_base.get("seconds"),
            c_base.get("seconds"),
            False,
            warn_tolerance,
            fail_tolerance,
        )
    )
    checks.append(
        _exact_check(
            "study.baseline.simulations",
            b_base.get("simulations"),
            c_base.get("simulations"),
        )
    )

    c_arms = {a.get("jobs"): a for a in c_study.get("arms", [])}
    for b_arm in b_study.get("arms", []):
        jobs = b_arm.get("jobs")
        name = f"study.arm[jobs={jobs}]"
        c_arm = c_arms.get(jobs)
        if (
            c_arm is None
            or c_arm.get("warm_start") != b_arm.get("warm_start")
            or c_arm.get("speculation") != b_arm.get("speculation")
        ):
            checks.append(CheckResult(name, "skip", "no matching arm in current record"))
            continue
        checks.append(
            _timing_check(
                f"{name}.seconds",
                b_arm.get("seconds"),
                c_arm.get("seconds"),
                False,
                warn_tolerance,
                fail_tolerance,
            )
        )
        checks.append(
            _exact_check(
                f"{name}.simulations",
                b_arm.get("simulations"),
                c_arm.get("simulations"),
            )
        )
        checks.append(
            _exact_check(
                f"{name}.evaluations_by_scale",
                b_arm.get("evaluations_by_scale"),
                c_arm.get("evaluations_by_scale"),
            )
        )
        checks.append(
            _exact_check(f"{name}.tuned", b_arm.get("tuned"), c_arm.get("tuned"))
        )

    checks.append(
        _exact_check(
            "study.tuned_points_identical_across_jobs",
            True,
            bool(c_study.get("tuned_points_identical_across_jobs")),
        )
    )
    return checks


def worst_status(checks: List[CheckResult]) -> str:
    """Overall verdict: the most severe individual status."""
    worst = "pass"
    for c in checks:
        if _STATUS_ORDER.get(c.status, 0) > _STATUS_ORDER[worst]:
            worst = c.status
    return worst


def render_checks(
    checks: List[CheckResult],
    warn_tolerance: float,
    fail_tolerance: float,
    warn_only: bool = False,
) -> str:
    """The human-readable watchdog report."""
    mark = {"pass": "ok  ", "warn": "WARN", "fail": "FAIL", "skip": "skip"}
    lines = [
        "perf watchdog — fresh bench-perf vs tracked baseline "
        f"(warn >{warn_tolerance:.0%}, fail >{fail_tolerance:.0%} timing regression; "
        "counts compared exactly)"
    ]
    for c in checks:
        lines.append(f"  [{mark.get(c.status, c.status)}] {c.metric}: {c.detail}")
    verdict = worst_status(checks)
    suffix = ""
    if verdict == "fail" and warn_only:
        suffix = " (--warn-only: exit status not enforced)"
    lines.append(f"verdict: {verdict.upper()}{suffix}")
    return "\n".join(lines)
