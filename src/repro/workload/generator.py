"""Workload synthesis: the stream of jobs driving a simulation run.

A :class:`JobSpec` is the immutable description of one job as the
workload model produced it — the paper's per-job attributes: arrival
instant, partition size (fixed at 1), execution time, requested time,
and cancellation possibility (fixed at 0), plus the user-benefit factor
``u ~ U[2, 5]`` from Table 1 (``U_b = u * runtime``) and the submission
cluster.

Classification (paper §3.1): jobs with execution time ``<= T_CPU`` are
LOCAL (must run at/near the submission point); longer jobs are REMOTE
(eligible for remote execution).  Because the study models no inter-job
data transfers, job size is the *only* locality constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .arrivals import PoissonArrivals
from .runtimes import RuntimeModel

__all__ = ["JobSpec", "JobClass", "WorkloadGenerator"]


class JobClass:
    """Job locality classes (paper §3.1)."""

    LOCAL = "LOCAL"
    REMOTE = "REMOTE"


@dataclass(frozen=True)
class JobSpec:
    """Immutable workload-model description of one job.

    Attributes
    ----------
    job_id:
        Dense index within the run's workload.
    arrival_time:
        Submission instant (time units).
    execution_time:
        True service demand at a unit-rate resource.
    requested_time:
        User's upper-bound estimate (``>= execution_time``).
    benefit_factor:
        ``u`` in ``U_b = u * execution_time`` — the job succeeds only if
        its response time is within ``U_b`` (Table 1: ``u ~ U[2, 5]``).
    submit_cluster:
        Cluster (scheduler id) where the job is submitted.
    job_class:
        ``JobClass.LOCAL`` or ``JobClass.REMOTE`` per the T_CPU rule.
    partition_size:
        Processors used; fixed at 1 in this study.
    """

    job_id: int
    arrival_time: float
    execution_time: float
    requested_time: float
    benefit_factor: float
    submit_cluster: int
    job_class: str
    partition_size: int = 1

    @property
    def benefit_bound(self) -> float:
        """``U_b``: the response-time bound for a successful execution."""
        return self.benefit_factor * self.execution_time


class WorkloadGenerator:
    """Generates the full job stream for one simulation run.

    Parameters
    ----------
    rate:
        System-wide job arrival rate (jobs per time unit) — the "workload"
        scaling variable of Tables 2–5.
    n_clusters:
        Number of submission points; each job picks one uniformly.
    runtime_model:
        Execution/requested time model.
    t_cpu:
        LOCAL/REMOTE classification threshold (Table 1: 700).
    benefit_lo, benefit_hi:
        Range of the user benefit factor (Table 1: [2, 5]).
    """

    def __init__(
        self,
        rate: float,
        n_clusters: int,
        runtime_model: RuntimeModel | None = None,
        t_cpu: float = 700.0,
        benefit_lo: float = 2.0,
        benefit_hi: float = 5.0,
        max_partition: int = 1,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("need at least one cluster")
        if t_cpu <= 0.0:
            raise ValueError("t_cpu must be positive")
        if not (0.0 < benefit_lo <= benefit_hi):
            raise ValueError("benefit range must satisfy 0 < lo <= hi")
        if max_partition < 1:
            raise ValueError("max_partition must be >= 1")
        self.arrivals = PoissonArrivals(rate)
        self.n_clusters = n_clusters
        self.runtime_model = runtime_model if runtime_model is not None else RuntimeModel()
        self.t_cpu = t_cpu
        self.benefit_lo = benefit_lo
        self.benefit_hi = benefit_hi
        #: largest moldable partition request.  The paper fixes this at
        #: 1; larger values draw power-of-two partitions (the dominant
        #: request shape in Cirne-Berman's trace fits).
        self.max_partition = max_partition

    def generate(self, horizon: float, rng: np.random.Generator) -> List[JobSpec]:
        """Produce the sorted job stream for ``[0, horizon)``.

        All sampling is vectorized; a Case-2 run at scale 6 generates
        tens of thousands of jobs in milliseconds.
        """
        times = self.arrivals.times(horizon, rng)
        n = len(times)
        if n == 0:
            return []
        runtimes = self.runtime_model.sample_runtimes(n, rng)
        requested = self.runtime_model.sample_requested(runtimes, rng)
        benefits = rng.uniform(self.benefit_lo, self.benefit_hi, size=n)
        clusters = rng.integers(0, self.n_clusters, size=n)
        if self.max_partition > 1:
            # Power-of-two partitions: 2^U with U uniform over the
            # feasible exponents (Cirne-Berman's dominant request shape).
            max_exp = int(np.floor(np.log2(self.max_partition)))
            exps = rng.integers(0, max_exp + 1, size=n)
            partitions = np.minimum(2**exps, self.max_partition)
        else:
            partitions = np.ones(n, dtype=int)
        # One bulk conversion per array: ``tolist`` yields exactly the
        # Python floats/ints the per-element ``float(a[i])``/``int(a[i])``
        # calls would, without a numpy scalar per field per job.
        t_cpu = self.t_cpu
        local, remote = JobClass.LOCAL, JobClass.REMOTE
        return [
            JobSpec(
                job_id=i,
                arrival_time=arrival,
                execution_time=runtime,
                requested_time=req,
                benefit_factor=benefit,
                submit_cluster=cluster,
                job_class=local if runtime <= t_cpu else remote,
                partition_size=partition,
            )
            for i, (arrival, runtime, req, benefit, cluster, partition) in enumerate(
                zip(
                    np.asarray(times, dtype=float).tolist(),
                    np.asarray(runtimes, dtype=float).tolist(),
                    np.asarray(requested, dtype=float).tolist(),
                    benefits.tolist(),
                    clusters.tolist(),
                    np.asarray(partitions).tolist(),
                )
            )
        ]

    def offered_load(self, horizon: float) -> float:
        """Expected total service demand offered over ``[0, horizon)``.

        ``rate * horizon * E[runtime]`` — used by experiments to size
        resource pools so base configurations operate at a feasible
        utilization.
        """
        return self.arrivals.rate * horizon * self.runtime_model.mean
