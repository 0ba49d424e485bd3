"""The experiment engine: cached, parallel execution of simulation runs.

:class:`ExperimentEngine` is the single choke point through which the
tuner's candidate batches, replication fans, benchmark sweeps, and the
CLI all execute simulations.  For every batch it

1. deduplicates identical configs (the tuner frequently revisits
   points) — by cache key, plus any passive monitor or trace plan,
   since runs under different passive plans share a key but record
   different payloads,
2. serves what it can from the :class:`~.cache.RunCache` (if attached),
3. fans the remaining *unique* configs out over a
   ``ProcessPoolExecutor`` — or runs them inline when ``jobs == 1`` —
4. writes fresh results back to the cache,

and returns results in input order.  Because every run is a pure
function of its config, the results are **independent of the worker
count**: ``jobs=1`` and ``jobs=8`` produce identical metrics, which is
what lets the run cache and the determinism test layer gate this whole
subsystem.

Worker-count resolution order: explicit argument, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs <= 0``
means "one per CPU".
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ...envknobs import get_int
from ...telemetry.spans import current as _telemetry
from ..config import SimulationConfig
from ..runner import RunMetrics, run_simulation
from .cache import RunCache
from .hashing import canonical_json, config_key, passive_plans

__all__ = ["ExperimentEngine", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``$REPRO_JOBS`` > 1.

    ``0`` or a negative value (from either source) selects
    ``os.cpu_count()`` workers.
    """
    jobs = get_int("REPRO_JOBS", override=jobs, default=1)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _identity(key: str, config: SimulationConfig) -> str:
    """A run's identity inside a batch: its cache key, plus its passive
    plans when it has any (plain runs compute nothing extra)."""
    plans = passive_plans(config)
    if plans is None:
        return key
    return f"{key}+{hashlib.sha256(canonical_json(plans)).hexdigest()[:16]}"


def _run_config(config: SimulationConfig) -> RunMetrics:
    """Top-level worker (must be picklable for the process pool)."""
    return run_simulation(config)


def _run_config_timed(config: SimulationConfig) -> Tuple[RunMetrics, int, float]:
    """Worker that also reports its PID and wall-clock seconds.

    Used when telemetry is enabled so per-job timings measured *inside*
    the worker (not queue-inflated parent-side latencies) reach the
    trace.  The metrics are exactly :func:`_run_config`'s.
    """
    t0 = time.monotonic()
    metrics = run_simulation(config)
    return metrics, os.getpid(), time.monotonic() - t0


class ExperimentEngine:
    """Runs batches of independent simulations, cached and in parallel.

    Parameters
    ----------
    jobs:
        Worker processes (see :func:`resolve_jobs`).  ``1`` keeps
        everything in-process — no pool, no pickling — so debuggers,
        profilers, and coverage see every frame.
    cache:
        A :class:`RunCache`, or ``None`` to disable persistence
        entirely (the default: library callers opt in, the CLI and
        benchmarks attach one).

    The engine may be used as a context manager; otherwise call
    :meth:`close` to reap the worker pool (it is also reaped on
    garbage collection).
    """

    def __init__(self, jobs: Optional[int] = None, cache: Optional[RunCache] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        #: simulations actually executed (cache misses), for tests/UX
        self.runs_executed = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def run(self, config: SimulationConfig) -> RunMetrics:
        """Run (or fetch) a single simulation."""
        return self.run_many([config])[0]

    def run_many(self, configs: Sequence[SimulationConfig]) -> List[RunMetrics]:
        """Run a batch of independent simulations; results in input order.

        Identical configs are executed once; cache hits are not
        executed at all.  With ``jobs > 1`` the unique misses execute
        concurrently in worker processes.

        With an ambient telemetry session, the batch is wrapped in an
        ``engine.batch`` span (dedup/hit/miss counts, worker
        utilization) and every executed run emits an ``engine.run``
        event with its worker-side wall-clock — the before/after
        numbers performance work needs.
        """
        tel = _telemetry()
        configs = list(configs)
        keys = [config_key(c) for c in configs]
        idents = [_identity(key, c) for key, c in zip(keys, configs)]
        results: Dict[str, RunMetrics] = {}

        with tel.span(
            "engine.batch", size=len(configs), unique=len(set(idents)), jobs=self.jobs
        ) as span:
            repairs_before = self.cache.repairs if self.cache is not None else 0

            # 1) cache reads
            if self.cache is not None:
                for ident, key, config in zip(idents, keys, configs):
                    if ident not in results:
                        hit = self.cache.get(config, key=key)
                        if hit is not None:
                            results[ident] = hit
            cache_hits = len(results)

            # 2) unique misses, in first-appearance order (determinism of
            #    execution order for the serial path); dict-backed
            #    membership keeps large batches out of O(n^2)
            miss: Dict[str, Tuple[str, SimulationConfig]] = {}
            for ident, key, config in zip(idents, keys, configs):
                if ident not in results and ident not in miss:
                    miss[ident] = (key, config)
            miss_configs = [config for _, config in miss.values()]

            # 3) execute — through the overridable seam, so alternative
            #    execution vehicles (the distributed fabric) plug in here
            #    while cache policy and result ordering stay identical;
            #    the seam sees batch identities, which are unique even
            #    where two passive plans share a cache key
            busy = 0.0
            wall = 0.0
            if miss_configs:
                t_exec = time.monotonic()
                computed, busy = self._execute_batch(list(miss), miss_configs, tel)
                wall = time.monotonic() - t_exec
                self.runs_executed += len(miss_configs)
                for (ident, (key, config)), metrics in zip(miss.items(), computed):
                    results[ident] = metrics
                    # 4) cache writes
                    if self.cache is not None:
                        self.cache.put(config, metrics, key=key)

            if tel.enabled:
                repairs = (
                    self.cache.repairs - repairs_before if self.cache is not None else 0
                )
                span.set(
                    cache_hits=cache_hits,
                    executed=len(miss_configs),
                    cache_repairs=repairs,
                    utilization=(
                        round(busy / (wall * self.jobs), 4) if wall > 0 else None
                    ),
                )
                scope = tel.metrics.scope("engine")
                scope.counter("batches").increment()
                scope.counter("runs_requested").increment(len(configs))
                scope.counter("runs_executed").increment(len(miss_configs))
                scope.counter("cache_hits").increment(cache_hits)
                scope.gauge("jobs").set(self.jobs)
                if miss_configs:
                    scope.tally("batch_seconds").record(wall)

        return [results[ident] for ident in idents]

    # ------------------------------------------------------------------
    def _execute_batch(
        self, miss_keys: List[str], miss_configs: List[SimulationConfig], tel
    ) -> Tuple[List[RunMetrics], float]:
        """Execute the unique cache misses; return ``(metrics, busy_seconds)``.

        The execution seam of :meth:`run_many`: subclasses swap the
        vehicle (e.g. :class:`~repro.fabric.coordinator.FabricEngine`
        dispatches to socket workers) without touching dedup, cache
        policy, or result ordering — which is exactly what makes a
        fabric study byte-identical to a local ``--jobs N`` run.
        ``miss_keys`` are the misses' batch identities: the cache key, with
        a suffix for a run under a passive plan, so they are unique even
        where two misses share a cache key.  ``metrics`` must align with
        ``miss_keys``; ``busy_seconds`` is the summed worker-side
        wall-clock (0.0 when unknown).
        """
        busy = 0.0
        if self.jobs == 1 or len(miss_configs) == 1:
            computed = []
            for key, c in zip(miss_keys, miss_configs):
                t0 = time.monotonic()
                computed.append(_run_config(c))
                seconds = time.monotonic() - t0
                busy += seconds
                if tel.enabled:
                    tel.event(
                        "engine.run",
                        key=key[:12],
                        rms=c.rms,
                        seed=c.seed,
                        seconds=round(seconds, 6),
                        worker_pid=os.getpid(),
                    )
                    tel.metrics.histogram("engine.run_seconds").record(seconds)
        elif tel.enabled:
            computed = []
            for (metrics, pid, seconds), key, c in zip(
                self._executor().map(_run_config_timed, miss_configs),
                miss_keys,
                miss_configs,
            ):
                computed.append(metrics)
                busy += seconds
                tel.event(
                    "engine.run",
                    key=key[:12],
                    rms=c.rms,
                    seed=c.seed,
                    seconds=round(seconds, 6),
                    worker_pid=pid,
                )
                tel.metrics.histogram("engine.run_seconds").record(seconds)
        else:
            computed = list(self._executor().map(_run_config, miss_configs))
        return computed, busy

    def _executor(self) -> ProcessPoolExecutor:
        """The lazily created, reused worker pool."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: reap the worker pool."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass
