"""Churn study renderers: how recovery overhead scales — ``repro faults``.

The paper's scalability verdict is the slope of ``G(k)`` under a
*fault-free* substrate.  The churn study re-asks the question under
resource churn: every design runs the Case-1 scaling path with a
:class:`~repro.faults.plan.FaultPlan` injecting exponential
crash/recover cycles, and the ``g.faults`` attribution component
(heartbeat sweeps, dead-resource processing, job re-dispatch) shows how
much of the growth is recovery work rather than steady-state
management.

The study itself runs through the shared plan-study pipeline
(:func:`~repro.experiments.planstudy.run_plan_study`, kind
``"faults"``), which checkpoints into ``<cache>/manifests/faults.json``
in the manifest shape ``repro attrib`` reads.  This module holds the
kind's default plan and its report.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.slope import slopes
from ..faults.plan import FaultPlan
from .config import ScaleProfile
from .tabulate import format_table

__all__ = [
    "default_churn_plan",
    "fault_report",
]


def default_churn_plan(
    profile: ScaleProfile,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
) -> FaultPlan:
    """The standard churn plan for one profile.

    Default MTTF is a quarter of the measured horizon — every resource
    crashes a handful of times per run, enough churn that recovery
    overhead is clearly visible without drowning useful work.  MTTR
    follows the plan's own convention (MTTF/10) unless overridden.
    """
    if mttf is None:
        mttf = profile.horizon / 4.0
    return FaultPlan(resource_mttf=float(mttf), resource_mttr=mttr)


def fault_report(result, precision: int = 1) -> str:
    """Render the churn study: per-design tables plus a slope ranking."""
    plan = result.plan
    parts: List[str] = []
    if plan.has_churn:
        parts.append(
            f"churn plan: MTTF={plan.resource_mttf:g}, "
            f"MTTR={plan.effective_mttr:g}, "
            f"churn fraction={plan.churn_fraction:g} "
            f"(profile {result.profile}, seed {result.seed})"
        )
    else:
        parts.append(
            f"fault plan {result.digest} "
            f"(profile {result.profile}, seed {result.seed})"
        )

    for name, points in result.points.items():
        rows = []
        for p in points:
            m = p.metrics
            stats = m.fault_stats or {}
            rows.append(
                [
                    p.scale,
                    m.record.F,
                    m.record.G,
                    m.record.H,
                    m.efficiency,
                    p.g("faults"),
                    stats.get("crashes", 0),
                    stats.get("jobs_killed", 0),
                    stats.get("redispatches", 0),
                    stats.get("jobs_unrecovered", 0),
                ]
            )
        parts.append(f"\n{name} under churn:")
        parts.append(
            format_table(
                [
                    "k",
                    "F",
                    "G",
                    "H",
                    "E",
                    "G:faults",
                    "crashes",
                    "killed",
                    "redisp",
                    "lost",
                ],
                rows,
                precision=precision,
            )
        )

    ranking = []
    for name, points in result.points.items():
        if len(points) < 2:
            continue
        ks = [p.scale for p in points]
        try:
            g_slope = slopes(ks, [p.metrics.record.G for p in points])
            f_slope = slopes(ks, [p.g("faults") for p in points])
        except ValueError:
            continue
        ranking.append(
            [
                name,
                sum(g_slope) / len(g_slope),
                sum(f_slope) / len(f_slope),
            ]
        )
    if ranking:
        ranking.sort(key=lambda row: row[1])
        parts.append("\nmean slope under churn (time units / k, lower is better):")
        parts.append(
            format_table(["RMS", "dG/dk", "d(G:faults)/dk"], ranking, precision=2)
        )
    return "\n".join(parts)
