"""Time-resolved observability study renderers: ``repro series``.

The study runs the Case-1 scaling path with a :class:`MonitorPlan`
attached to every config, so each (RMS, scale) run carries a windowed
F/G/H stream and (optionally) in-sim probe gauges.  It runs through the
shared plan-study pipeline
(:func:`~repro.experiments.planstudy.run_plan_study`, kind
``"series"``), which checkpoints into ``<cache>/manifests/series.json``
with the series payload inside each point.  On top of the per-run
payloads this module renders:

* per-scale **E(t)/G(t) tables** — the windowed trajectory, thinned to
  a terminal-friendly row count (the exports carry every window);
* the **steady-state vs final-E comparison** — MSER warmup truncation
  per run, with the relative disagreement the acceptance bar checks;
* an **overhead/accuracy sweep** — several probe intervals at a fixed
  charge rate, demonstrating monotone ``G:monitor`` growth with probe
  frequency while F stays bit-for-bit conserved (ledger charges never
  feed back into behaviour, so the efficiency *measurement* degrades
  gracefully while the *workload outcome* is invariant);
* **exports** — per-window CSV and a Prometheus text exposition of the
  study's summary gauges (the per-run JSONL is the pipeline's shared
  :func:`~repro.experiments.planstudy.export_jsonl`).
"""

from __future__ import annotations

import csv
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, TextIO

from ..telemetry.promexport import attribution_labels, write_metric
from ..telemetry.timeseries import (
    MonitorPlan,
    efficiency_curve,
    merge_series,
    resolve_monitor_plan,
    steady_state,
)
from .config import ScaleProfile
from .tabulate import format_table

__all__ = [
    "default_monitor_plan",
    "export_csv",
    "export_prometheus",
    "series_report",
    "sweep_report",
]


def default_monitor_plan(
    profile: ScaleProfile,
    window: Optional[float] = None,
    probe_interval: Optional[float] = None,
    charge_rate: Optional[float] = None,
) -> MonitorPlan:
    """The standard study plan for one profile.

    Windowed streams on.  Each knob comes from its argument, then its
    ``REPRO_SERIES_*`` environment variable, then the derived default
    (see :func:`resolve_monitor_plan`).  Probes default to the
    status-update period's order of magnitude (``horizon / 200``) so a
    run collects a few hundred sweeps — dense enough for the gauges to
    mean something, sparse enough to stay cheap.
    """
    plan = resolve_monitor_plan(
        series=True,
        window=window,
        probe_interval=probe_interval,
        charge_rate=charge_rate,
    )
    if plan.probe_interval == 0.0:
        plan = replace(plan, probe_interval=profile.horizon / 200.0)
    return plan


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _thin(indices: Sequence[int], limit: int) -> List[int]:
    """At most ``limit`` evenly spaced entries, endpoints included."""
    n = len(indices)
    if n <= limit:
        return list(indices)
    step = (n - 1) / (limit - 1)
    picked = {int(round(i * step)) for i in range(limit)}
    return [indices[i] for i in sorted(picked)]


def series_report(
    result, precision: int = 3, curve_rows: int = 12
) -> str:
    """Render the study: steady-state tables plus thinned E(t)/G(t) curves."""
    plan = result.plan
    parts: List[str] = [
        f"monitor plan {result.digest}: "
        f"probe_interval={plan.probe_interval:g}, "
        f"charge_rate={plan.charge_rate:g} "
        f"(profile {result.profile}, seed {result.seed})"
    ]

    worst = 0.0
    rows = []
    for name, points in result.points.items():
        for p in points:
            ss = p.steady
            if not ss:
                continue
            rel = ss["rel_error"]
            if rel == rel and rel > worst:
                worst = rel
            rows.append(
                [
                    name,
                    p.scale,
                    ss["steady_E"],
                    ss["final_E"],
                    rel * 100.0,
                    ss["warmup_time"],
                    p.g("monitor"),
                ]
            )
    parts.append("\nsteady-state detection (MSER warmup truncation):")
    parts.append(
        format_table(
            ["RMS", "k", "steady E", "final E", "|err| %", "warmup t", "G:monitor"],
            rows,
            precision=precision,
        )
    )
    parts.append(
        f"steady-state vs final-E agreement: worst {worst * 100.0:.3f}%"
        + (" (within 2%)" if worst <= 0.02 else " (EXCEEDS 2%)")
    )

    for name, points in result.points.items():
        payloads = [p.series for p in points if p.series is not None]
        if not payloads:
            continue
        parts.append(f"\n{name} — E(t)/G(t) per scale (thinned to {curve_rows} rows):")
        for p in points:
            if p.series is None:
                continue
            curve = efficiency_curve(p.series)
            g = p.series["sums"].get("G", [])
            idx = _thin(range(len(curve)), curve_rows)
            crows = [
                [
                    curve[i][0],
                    curve[i][1],
                    curve[i][2],
                    g[i] if i < len(g) else 0.0,
                ]
                for i in idx
            ]
            parts.append(f"  k={p.scale:g}:")
            parts.append(
                format_table(
                    ["t", "e(t) inst", "E(t) cum", "G(t) window"],
                    crows,
                    precision=precision,
                )
            )
        merged = merge_series(payloads)
        mss = steady_state(merged)
        parts.append(
            f"  merged across scales: steady E={mss['steady_E']:.{precision}f}, "
            f"final E={mss['final_E']:.{precision}f}, "
            f"warmup t={mss['warmup_time']:g}"
        )
    return "\n".join(parts)


def sweep_report(result, precision: int = 3) -> str:
    """Render the overhead/accuracy sweep (monotone G:monitor check).

    Charges never feed back into simulation behaviour, so F must be
    bit-for-bit identical across probe intervals; the report says so
    explicitly (and flags any violation).
    """
    if not result.sweep:
        return ""
    parts: List[str] = ["\noverhead/accuracy sweep (base scale, per design):"]
    conserved = True
    monotone = True
    for name in sorted(next(iter(result.sweep.values()))):
        rows = []
        f_values = []
        g_monitor_by_rate = []
        for interval, by_rms in result.sweep.items():
            p = by_rms[name]
            sweeps = (p.series or {}).get("sweeps", 0)
            f_values.append(p.metrics.record.F)
            g_monitor_by_rate.append((1.0 / interval, p.g("monitor")))
            rows.append(
                [
                    interval,
                    int(sweeps),
                    p.g("monitor"),
                    p.metrics.record.G,
                    p.metrics.efficiency,
                    p.metrics.record.F,
                ]
            )
        if any(f != f_values[0] for f in f_values[1:]):
            conserved = False
        g_monitor_by_rate.sort()
        gm = [g for _, g in g_monitor_by_rate]
        if any(b < a for a, b in zip(gm, gm[1:])):
            monotone = False
        parts.append(f"\n{name}:")
        parts.append(
            format_table(
                ["probe_interval", "sweeps", "G:monitor", "G", "E", "F"],
                rows,
                precision=precision,
            )
        )
    parts.append(
        "\nF conserved across sweep: " + ("yes" if conserved else "NO — VIOLATION")
    )
    parts.append(
        "G:monitor monotone in probe frequency: "
        + ("yes" if monotone else "NO — VIOLATION")
    )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def export_csv(result, fh: TextIO) -> int:
    """Every window of every run as CSV rows; returns the row count."""
    writer = csv.writer(fh)
    writer.writerow(
        ["rms", "scale", "t", "width", "F", "G", "H", "e_inst", "E_cum"]
    )
    n = 0
    for name, points in result.points.items():
        for p in points:
            if p.series is None:
                continue
            sums = p.series["sums"]
            f = sums.get("F", [])
            g = sums.get("G", [])
            h = sums.get("H", [])
            width = p.series["width"]
            for i, (t, inst, cum) in enumerate(efficiency_curve(p.series)):
                writer.writerow(
                    [
                        name,
                        p.scale,
                        t,
                        width,
                        f[i] if i < len(f) else 0.0,
                        g[i] if i < len(g) else 0.0,
                        h[i] if i < len(h) else 0.0,
                        "" if inst != inst else inst,
                        "" if cum != cum else cum,
                    ]
                )
                n += 1
    return n


def export_prometheus(result, fh: TextIO) -> int:
    """Prometheus text exposition of the study's summary gauges.

    One sample per (metric, rms, scale) — the end-of-study snapshot a
    scrape of a live study would serve — rendered via the shared
    :mod:`~repro.telemetry.promexport` path, plus a per-component
    attribution family (``repro_overhead_component_total``) labeled by
    the flattened ledger cell.  Returns the sample count.
    """
    metrics: Dict[str, tuple] = {
        "repro_useful_work_total": ("counter", lambda p, s: p.metrics.record.F),
        "repro_rms_overhead_total": ("counter", lambda p, s: p.metrics.record.G),
        "repro_rp_overhead_total": ("counter", lambda p, s: p.metrics.record.H),
        "repro_monitor_overhead_total": ("counter", lambda p, s: p.g("monitor")),
        "repro_efficiency": ("gauge", lambda p, s: p.metrics.efficiency),
        "repro_steady_efficiency": ("gauge", lambda p, s: s.get("steady_E")),
        "repro_warmup_time": ("gauge", lambda p, s: s.get("warmup_time")),
    }
    points = [p for pts in result.points.values() for p in pts]
    n = 0
    for mname, (mtype, getter) in metrics.items():
        n += write_metric(
            fh,
            mname,
            mtype,
            (
                (
                    {"rms": p.rms, "scale": p.scale, "profile": result.profile},
                    getter(p, p.steady),
                )
                for p in points
            ),
        )
    n += write_metric(
        fh,
        "repro_overhead_component_total",
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
            if key.startswith("g.")
        ),
    )
    return n
