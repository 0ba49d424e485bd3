"""Canonical, cross-process hashing of simulation configurations.

The run cache and the study manifest both key on *what a run computes*,
which is fully determined by its :class:`SimulationConfig` (the runner
derives every random stream from ``config.seed``).  The key must
therefore be

* **canonical** — invariant to dict/field ordering and to how the
  config was constructed (``replace``, ``with_enablers``, literal);
* **stable across processes** — no dependence on ``PYTHONHASHSEED``,
  object identity, or interpreter session (Python's built-in ``hash``
  satisfies none of these for strings);
* **sensitive** — any semantic field change, however deep
  (``costs.update_proc``, ``common.t_cpu``), must change the key.

We get all three by flattening the config dataclass tree into plain
JSON types, serializing with sorted keys, and hashing with SHA-256.
``CACHE_SCHEMA_VERSION`` is mixed into the digest so that changing the
persisted record format (or the meaning of a config field) invalidates
old cache entries wholesale instead of deserializing them wrongly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

from ..config import SimulationConfig

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CONDITIONAL_PROVENANCE_FIELDS",
    "canonical_config",
    "config_key",
    "canonical_json",
    "passive_plans",
]

#: bump when the cache record format or config semantics change
#: (v2: RunMetrics carries the attribution decomposition and traffic
#: summary, and F/G/H are correctly-rounded ``fsum`` totals — pre-v2
#: entries hold last-ulp-different sequential sums and must not mix
#: with fresh runs)
#: (v3: SimulationConfig carries a FaultPlan — nested dataclasses
#: canonicalize recursively, so it hashes automatically — and
#: RunMetrics may carry fault_stats)
CACHE_SCHEMA_VERSION = 3

#: fields that are provenance only in some states: ``monitor`` is
#: dropped while the plan is passive (pure observation, results
#: bit-identical to an unmonitored run) but hashed once it charges
#: ``g.monitor``; ``fluid`` is dropped while the plan is inert
#: (``discrete`` mode changes nothing about the run, so pre-fluid
#: cache entries stay valid without a schema bump) but hashed once
#: the fluid traffic model is enabled; ``trace`` follows the monitor
#: pattern exactly — a zero-charge-rate plan samples spans without
#: touching F/G/H or any job outcome, so it is dropped, while a plan
#: that charges ``g.trace`` is hashed — see :func:`canonical_config`.
CONDITIONAL_PROVENANCE_FIELDS = frozenset({"monitor", "fluid", "trace"})


def _plain(value: Any) -> Any:
    """Reduce a config field value to plain JSON types, recursively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # Collapse integral floats so 2.0 and 2 produced by different
        # construction paths hash identically.
        return int(value) if value.is_integer() else value
    raise TypeError(f"cannot canonicalize config field of type {type(value)!r}")


def canonical_config(config: SimulationConfig) -> Dict[str, Any]:
    """The config as a nested dict of plain JSON types.

    Field order is irrelevant to the eventual key (serialization sorts
    keys at every level).

    The monitor plan is conditionally provenance: a **passive** plan
    (no probe charges) observes a run without changing anything it
    computes — F/G/H, attribution, and job outcomes are bit-identical
    to an unmonitored run — so it is dropped and keys stay unchanged
    from before the field existed (no schema bump; old entries remain
    valid and shareable with monitored runs).
    An **active** plan charges ``g.monitor`` and therefore hashes like
    any semantic field.

    The fluid plan follows the same pattern: an inert (``discrete``)
    plan *is* the pre-fluid behaviour, so dropping it keeps every key
    bit-for-bit what it was before the field existed; a ``fluid`` plan
    changes the traffic model and is hashed like any semantic field.

    The trace plan mirrors the monitor plan: sampling decisions are a
    pure hash (never a simulation RNG draw) and a zero-charge-rate
    plan records spans without perturbing F/G/H or any job outcome, so
    such **passive** plans are dropped from the key; a plan charging
    ``g.trace`` is hashed like any semantic field.
    """
    plain = _plain(config)
    # The retired ``loss_probability`` field hashed as 0 in every v3
    # key (a nonzero value moved onto ``faults.link_loss``); pinning
    # the constant keeps those keys bit-identical without a bump.
    plain["loss_probability"] = 0
    if not config.monitor.is_active:
        plain.pop("monitor", None)
    if not config.fluid.is_fluid:
        plain.pop("fluid", None)
    if not config.trace.is_active:
        plain.pop("trace", None)
    return plain


def passive_plans(config: SimulationConfig) -> Optional[Dict[str, Any]]:
    """The enabled plans :func:`canonical_config` drops from the key.

    A passive monitor or trace plan records a payload without changing
    anything else the run computes, so runs under different passive
    plans share one cache key.  Their payloads still differ (a 25-unit
    probe interval sweeps twice as often as a 50-unit one), so the run
    cache records these plans beside an entry's payloads and serves the
    entry only to a config with the same ones, and the engine keeps such
    runs apart inside a batch.  ``None`` when the config has none (every
    plain run), so the check costs nothing there.
    """
    plans = {}
    if config.monitor.is_enabled and not config.monitor.is_active:
        plans["monitor"] = _plain(config.monitor)
    if config.trace.is_enabled and not config.trace.is_active:
        plans["trace"] = _plain(config.trace)
    return plans or None


def canonical_json(payload: Any) -> bytes:
    """Serialize ``payload`` to canonical (sorted, compact) JSON bytes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def config_key(config: SimulationConfig) -> str:
    """The content-addressed cache key of one simulation run.

    A hex SHA-256 digest over the canonicalized config plus the cache
    schema version; equal configs map to equal keys in every process.
    """
    payload = {"v": CACHE_SCHEMA_VERSION, "config": canonical_config(config)}
    return hashlib.sha256(canonical_json(payload)).hexdigest()
