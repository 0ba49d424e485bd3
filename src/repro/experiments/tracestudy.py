"""Causal-tracing study renderers: ``repro trace``.

The study runs the Case-1 scaling path with a :class:`TracePlan`
attached to every config, so each (RMS, scale) run carries sampled
span DAGs and per-message-class latency histograms.  It runs through
the shared plan-study pipeline
(:func:`~repro.experiments.planstudy.run_plan_study`, kind
``"trace"``), which checkpoints into ``<cache>/manifests/trace.json``.
On top of the per-run payloads this module renders:

* per-design **phase-share tables** — every sampled job's turnaround
  decomposed into named critical-path phases (submit wait, scheduler
  queue, decision service, transfer/dispatch transit, resource queue,
  service, recovery wait), one row per scale;
* the **decomposition invariant** — per-job phase sums must telescope
  to the recorded turnaround (floating-point tolerance); the report
  carries a grep-able yes/VIOLATION line;
* the **growth ranking** — which phase's *share* of turnaround grows
  fastest with the scale factor k, the per-job twin of ``repro
  attrib``'s per-component G(k) slopes;
* **latency quantiles** — p50/p95/p99 transit delay per message class,
  merged across scales from the bucketed histograms;
* **exports** — per-phase CSV and a Prometheus text exposition via the
  shared :mod:`~repro.telemetry.promexport` path (the per-run JSONL is
  the pipeline's shared :func:`~repro.experiments.planstudy.export_jsonl`).
"""

from __future__ import annotations

import csv
from typing import List, Optional, Sequence, TextIO

from ..telemetry.critpath import (
    PHASES,
    growth_ranking,
    latency_quantiles,
    merge_latency,
)
from ..telemetry.promexport import attribution_labels, write_metric
from ..telemetry.tracing import TracePlan, resolve_trace_plan
from .tabulate import format_table

__all__ = [
    "RESIDUAL_TOLERANCE",
    "default_trace_plan",
    "export_csv",
    "export_prometheus",
    "trace_report",
]


#: absolute tolerance on |fsum(phases) - turnaround| per job.  The
#: decomposition telescopes, so the only error source is rounding of
#: the interval differences — parts in 1e-12 of the O(1e4) turnarounds.
RESIDUAL_TOLERANCE = 1e-6


def default_trace_plan(
    sample: Optional[float] = None,
    charge_rate: Optional[float] = None,
    max_events: Optional[int] = None,
) -> TracePlan:
    """The standard study plan: trace every job unless told otherwise.

    CI-profile runs submit a few hundred jobs per point, so full
    sampling stays cheap; explicit knobs and the ``REPRO_TRACE_*``
    environment variables override (see :func:`resolve_trace_plan`).
    The default charge rate is the dataclass's nonzero one — the study
    *charges* its observation to ``g.trace`` by default, same contract
    as an active monitor plan.
    """
    return resolve_trace_plan(
        sample=sample,
        charge_rate=charge_rate,
        max_events=max_events,
        default_sample=1.0,
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _present_phases(points: Sequence) -> List[str]:
    """Phases that occur anywhere across the points, in canonical order."""
    seen = {name for p in points for name in p.phases.get("phases", {})}
    return [name for name in PHASES if name in seen]


def trace_report(result, precision: int = 3) -> str:
    """Render the study: per-design phase-share tables, the telescoping
    invariant, the share-growth ranking, and latency quantiles."""
    plan = result.plan
    parts: List[str] = [
        f"trace plan {result.digest}: "
        f"sample={plan.sample:g}, charge_rate={plan.charge_rate:g}, "
        f"max_events={plan.max_events} "
        f"(profile {result.profile}, seed {result.seed})"
    ]

    worst_residual = 0.0
    total_sampled = 0
    total_dropped = 0
    for name, points in result.points.items():
        columns = _present_phases(points)
        rows = []
        growth_points = []
        for p in points:
            agg = p.phases
            if not agg:
                continue
            shares = p.shares
            if agg["max_residual"] > worst_residual:
                worst_residual = agg["max_residual"]
            trace = p.trace or {}
            total_sampled += trace.get("sampled", 0)
            total_dropped += trace.get("dropped", 0)
            growth_points.append((p.scale, shares))
            rows.append(
                [p.scale, agg["jobs"], agg["incomplete"]]
                + [shares.get(c, 0.0) for c in columns]
                + [p.g("trace")]
            )
        parts.append(f"\n{name} — phase shares of turnaround per scale:")
        parts.append(
            format_table(
                ["k", "jobs", "incompl"] + columns + ["g.trace"],
                rows,
                precision=precision,
            )
        )
        ranking = growth_ranking(growth_points)
        if ranking:
            top = ", ".join(
                f"{n} ({slope:+.2e}/k)" for n, slope in ranking[:3]
            )
            parts.append(f"  share growth with k (top 3): {top}")

        merged = merge_latency(p.trace for p in points if p.trace is not None)
        if merged:
            parts.append(f"  {name} — transit latency by message class (all scales):")
            parts.append(
                format_table(
                    ["class", "count", "mean", "p50", "p95", "p99", "max"],
                    latency_quantiles(merged),
                    precision=precision,
                )
            )

    parts.append(
        f"\nsampled jobs: {total_sampled}, spans dropped past the "
        f"per-job bound: {total_dropped}"
    )
    parts.append(
        "phase decomposition sums to turnaround: "
        + (
            f"yes (worst residual {worst_residual:.2e})"
            if worst_residual <= RESIDUAL_TOLERANCE
            else f"NO — VIOLATION (worst residual {worst_residual:.2e})"
        )
    )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def export_csv(result, fh: TextIO) -> int:
    """One CSV row per (rms, scale, phase); returns the row count."""
    writer = csv.writer(fh)
    writer.writerow(
        ["rms", "scale", "jobs", "incomplete", "phase", "seconds", "share"]
    )
    n = 0
    for name, points in result.points.items():
        for p in points:
            agg = p.phases
            if not agg:
                continue
            shares = p.shares
            for phase in PHASES:
                if phase not in agg["phases"]:
                    continue
                writer.writerow(
                    [
                        name,
                        p.scale,
                        agg["jobs"],
                        agg["incomplete"],
                        phase,
                        agg["phases"][phase],
                        shares.get(phase, 0.0),
                    ]
                )
                n += 1
    return n


def export_prometheus(result, fh: TextIO) -> int:
    """Prometheus text exposition of the study's summary samples.

    Phase seconds and shares per (rms, scale), the ``g.trace``
    recording overhead with its attribution labels, and per-message-
    class latency quantiles.  Returns the sample count.
    """
    points = [p for pts in result.points.values() for p in pts]
    n = 0
    n += write_metric(
        fh,
        "repro_trace_phase_seconds_total",
        "counter",
        (
            (
                {
                    "rms": p.rms,
                    "scale": p.scale,
                    "profile": result.profile,
                    "phase": phase,
                },
                seconds,
            )
            for p in points
            for phase, seconds in sorted(p.phases.get("phases", {}).items())
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_phase_share",
        "gauge",
        (
            (
                {
                    "rms": p.rms,
                    "scale": p.scale,
                    "profile": result.profile,
                    "phase": phase,
                },
                share,
            )
            for p in points
            for phase, share in sorted(p.shares.items())
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_jobs_sampled",
        "gauge",
        (
            (
                {"rms": p.rms, "scale": p.scale, "profile": result.profile},
                (p.trace or {}).get("sampled"),
            )
            for p in points
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_overhead_total",
        "counter",
        (
            (
                {
                    "rms": p.rms,
                    "scale": p.scale,
                    "profile": result.profile,
                    **attribution_labels(key),
                },
                value,
            )
            for p in points
            for key, value in sorted((p.metrics.attribution or {}).items())
            if key.startswith("g.trace")
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_latency",
        "gauge",
        (
            (
                {
                    "rms": p.rms,
                    "scale": p.scale,
                    "profile": result.profile,
                    "message_class": kind,
                    "quantile": q,
                },
                snap.get(q),
            )
            for p in points
            for kind, snap in sorted((p.trace or {}).get("latency", {}).items())
            for q in ("p50", "p95", "p99")
        ),
    )
    return n
