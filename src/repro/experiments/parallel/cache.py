"""Content-addressed on-disk cache of simulation results.

One cache entry is one JSON file ``<root>/<kk>/<key>.json`` where
``key = config_key(config)`` (and ``kk`` its first two hex digits, to
keep directories small).  The payload is the full
:class:`~repro.experiments.runner.RunMetrics` record, so a cache hit
reconstructs exactly what :func:`run_simulation` would have returned —
the determinism tests prove the round trip is byte-faithful.

Robustness rules:

* a **corrupted or truncated** entry is treated as a miss (the run is
  recomputed and the entry rewritten), never an error;
* writes are **atomic** (temp file + ``os.replace``), so a killed sweep
  cannot leave a half-written entry that later poisons a read;
* ``read=False`` supports ``--no-cache``: reads are bypassed but fresh
  results are still written, so a forced recompute repopulates the
  cache instead of orphaning it;
* an entry is served only with the payloads the config's plans ask
  for.  Passive monitor and trace plans share a key with plain runs
  (see :mod:`.hashing`), so an entry may lack the series or trace
  payload, or carry one recorded under another passive plan.  Such an
  entry reads as a miss; the recomputed run (byte-identical apart from
  the payload) rewrites it.  An entry records its passive plans under
  ``"plans"``, and only when it has some, so plain entries keep their
  bytes.
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ...core.efficiency import EfficiencyRecord
from ...envknobs import get_str
from ...telemetry.spans import current as _telemetry
from ..config import SimulationConfig
from ..runner import RunMetrics
from .hashing import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    config_key,
    passive_plans,
)

import json

log = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RunCache",
    "metrics_to_jsonable",
    "metrics_from_jsonable",
    "metrics_json_bytes",
]

#: default cache location (relative to the working directory);
#: override with the ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = ".repro-cache"

#: RunMetrics scalar fields persisted verbatim
_METRIC_FIELDS = (
    "jobs_submitted",
    "jobs_completed",
    "jobs_successful",
    "mean_response",
    "throughput",
    "messages_sent",
    "scheduler_busy",
    "horizon",
)


def metrics_to_jsonable(metrics: RunMetrics) -> Dict[str, Any]:
    """Flatten a :class:`RunMetrics` into plain JSON types.

    The attribution decomposition and traffic summary ride along
    verbatim: JSON round-trips Python floats losslessly, so the
    conservation invariant (``fsum`` of attributed parts equals F/G/H
    exactly) survives the cache.
    """
    out: Dict[str, Any] = {
        "record": {"F": metrics.record.F, "G": metrics.record.G, "H": metrics.record.H}
    }
    for name in _METRIC_FIELDS:
        out[name] = getattr(metrics, name)
    if metrics.attribution is not None:
        out["attribution"] = metrics.attribution
    if metrics.traffic is not None:
        out["traffic"] = metrics.traffic
    if metrics.fault_stats is not None:
        out["fault_stats"] = metrics.fault_stats
    if metrics.series is not None:
        out["series"] = metrics.series
    if metrics.trace is not None:
        out["trace"] = metrics.trace
    return out


def metrics_from_jsonable(payload: Dict[str, Any]) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_jsonable` output.

    Raises
    ------
    KeyError / TypeError / ValueError
        If the payload is malformed; callers treat that as a cache miss.
    """
    record = payload["record"]
    return RunMetrics(
        record=EfficiencyRecord(
            F=float(record["F"]), G=float(record["G"]), H=float(record["H"])
        ),
        jobs_submitted=int(payload["jobs_submitted"]),
        jobs_completed=int(payload["jobs_completed"]),
        jobs_successful=int(payload["jobs_successful"]),
        mean_response=float(payload["mean_response"]),
        throughput=float(payload["throughput"]),
        messages_sent=int(payload["messages_sent"]),
        scheduler_busy=float(payload["scheduler_busy"]),
        horizon=float(payload["horizon"]),
        attribution=payload.get("attribution"),
        traffic=payload.get("traffic"),
        fault_stats=payload.get("fault_stats"),
        series=payload.get("series"),
        trace=payload.get("trace"),
    )


def _serves(
    config: SimulationConfig, metrics: RunMetrics, recorded: Optional[Dict[str, Any]]
) -> bool:
    """Whether an entry carries the payloads ``config``'s plans ask for."""
    if config.monitor.is_enabled and metrics.series is None:
        return False
    if config.trace.is_enabled and metrics.trace is None:
        return False
    plans = passive_plans(config)
    return plans is None or all(
        (recorded or {}).get(name) == plan for name, plan in plans.items()
    )


def metrics_json_bytes(metrics: RunMetrics) -> bytes:
    """Canonical JSON encoding of a run's metrics.

    Used by the determinism tests as the byte-identity witness: two
    runs are "byte-identical" iff these encodings are equal.
    """
    return canonical_json(metrics_to_jsonable(metrics))


class RunCache:
    """Persistent map ``SimulationConfig -> RunMetrics`` keyed by content.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache``.  Created lazily on first write.
    read:
        When ``False`` (``--no-cache``), :meth:`get` always misses but
        :meth:`put` still persists results.
    write:
        When ``False``, the cache is read-only.
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        read: bool = True,
        write: bool = True,
    ) -> None:
        if root is None:
            root = get_str("REPRO_CACHE_DIR", default=DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.read = read
        self.write = write
        #: diagnostics: reads served / reads missed / entries written /
        #: unreadable entries encountered
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    @property
    def repairs(self) -> int:
        """Corrupt entries encountered and scheduled for repair.

        Every unreadable entry is recomputed and rewritten by the
        engine's miss path, so the corrupt-read count *is* the repair
        count.  Each one is logged with the offending key and counted
        in the telemetry metrics (``cache.repairs``) — corruption is
        survivable, but never silent.
        """
        return self.errors

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, config: SimulationConfig, key: Optional[str] = None) -> Optional[RunMetrics]:
        """The cached result for ``config``, or ``None`` on any miss.

        Corrupted, truncated, or wrong-version entries count as misses
        (and are tallied in :attr:`errors`), and so does an entry that
        lacks a payload the config's plans ask for.
        """
        if not self.read:
            self.misses += 1
            return None
        key = key or config_key(config)
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text("utf-8"))
            if payload.get("version") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"cache schema {payload.get('version')!r}")
            metrics = metrics_from_jsonable(payload["metrics"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # unreadable entry: fall back to recompute, never crash —
            # but say so, and count the repair
            self.errors += 1
            self.misses += 1
            log.warning(
                "corrupt run-cache entry %s (%s: %s); recomputing", key, type(exc).__name__, exc
            )
            tel = _telemetry()
            tel.metrics.counter("cache.repairs").increment()
            tel.event("cache.corrupt", key=key, error=f"{type(exc).__name__}: {exc}")
            return None
        if not _serves(config, metrics, payload.get("plans")):
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(
        self, config: SimulationConfig, metrics: RunMetrics, key: Optional[str] = None
    ) -> None:
        """Persist ``metrics`` under ``config``'s key (atomic replace)."""
        if not self.write:
            return
        path = self.path_for(key or config_key(config))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "metrics": metrics_to_jsonable(metrics),
        }
        plans = passive_plans(config)
        if plans is not None:
            payload["plans"] = plans
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(canonical_json(payload))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    # ------------------------------------------------------------------
    def entry_bytes(self) -> Dict[str, bytes]:
        """Every on-disk entry as ``{key: file bytes}``.

        The byte-identity witness for whole caches: two caches hold
        identical results iff these mappings are equal (entries are
        canonical JSON, so equal payloads are equal bytes).  Used by the
        fabric tests/CI to prove a distributed study populated the cache
        exactly as a local ``--jobs N`` run would have.
        """
        out: Dict[str, bytes] = {}
        if self.root.is_dir():
            for path in sorted(self.root.glob("*/*.json")):
                out[path.stem] = path.read_bytes()
        return out

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*/*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
