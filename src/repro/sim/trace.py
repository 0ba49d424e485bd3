"""Timeline inspection of finished jobs.

:func:`job_timeline` reconstructs one job's life as human-readable
lines; :func:`busy_gantt` renders resources' busy periods as a text
Gantt chart.  Both work from the jobs' recorded state, so nothing in
the hot path changes.  A ring of executed kernel events is the flight
recorder's job (:meth:`~repro.telemetry.flightrec.FlightRecorder.chain_kernel_trace`).
"""

from __future__ import annotations

from typing import List, Sequence

from ..grid.jobs import Job

__all__ = ["job_timeline", "busy_gantt"]


def job_timeline(job: Job) -> List[str]:
    """A human-readable reconstruction of one job's life.

    Works from the job's recorded state, so it needs no tracer.
    """
    spec = job.spec
    lines = [
        f"job #{spec.job_id} [{spec.job_class}] demand={spec.execution_time:.1f} "
        f"U_b={spec.benefit_bound:.1f} submitted at cluster {spec.submit_cluster}",
        f"t={spec.arrival_time:10.1f}  arrival",
    ]
    if job.executed_cluster is not None:
        hop = (
            f" (transferred x{job.transfers})"
            if job.transfers
            else " (stayed local)"
        )
        lines.append(f"{'':14}placed at cluster {job.executed_cluster}{hop}")
    if job.start_service is not None:
        wait = job.start_service - spec.arrival_time
        lines.append(f"t={job.start_service:10.1f}  service start (waited {wait:.1f})")
    if job.completion_time is not None:
        verdict = "SUCCESS" if job.successful else "MISSED BOUND"
        lines.append(
            f"t={job.completion_time:10.1f}  completed, response "
            f"{job.response_time:.1f} vs U_b {spec.benefit_bound:.1f} -> {verdict}"
        )
    else:
        lines.append(f"{'':14}state: {job.state}")
    return lines


def busy_gantt(
    jobs: Sequence[Job],
    t_start: float,
    t_end: float,
    width: int = 72,
    by: str = "cluster",
) -> str:
    """Render completed jobs' service intervals as a text Gantt chart.

    Parameters
    ----------
    jobs:
        Jobs to render (incomplete ones are skipped).
    t_start, t_end:
        Window to render.
    width:
        Chart columns.
    by:
        Row grouping: ``"cluster"`` or ``"resource"`` (by executed
        cluster only — resources are not recorded on the job — so
        ``"cluster"`` is the meaningful default).
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    span = t_end - t_start
    rows = {}
    for job in jobs:
        if job.start_service is None or job.completion_time is None:
            continue
        key = job.executed_cluster if by == "cluster" else job.executed_cluster
        rows.setdefault(key, []).append(job)
    lines = []
    for key in sorted(k for k in rows if k is not None):
        cells = [" "] * width
        for job in rows[key]:
            lo = max(job.start_service, t_start)
            hi = min(job.completion_time, t_end)
            if hi <= lo:
                continue
            c0 = int((lo - t_start) / span * (width - 1))
            c1 = int((hi - t_start) / span * (width - 1))
            for c in range(c0, c1 + 1):
                cells[c] = "#" if cells[c] == " " else "="  # '=' marks overlap
        lines.append(f"cluster {key:>3} |{''.join(cells)}|")
    header = f"t in [{t_start:g}, {t_end:g}]  ('#' busy, '=' concurrent jobs)"
    return header + "\n" + "\n".join(lines) if lines else header + "\n(no service in window)"
