"""Central registry and resolution of the ``REPRO_*`` environment knobs.

Every environment variable the package consults is declared here, in
one table, with its type, default, and consumer.  Resolution follows a
single documented precedence everywhere::

    explicit value (CLI flag / function argument)  >  environment  >  default

The typed getters (:func:`get_str`, :func:`get_int`, :func:`get_float`,
:func:`get_bool`) implement that precedence: pass the explicit value as
``override`` and the knob's declared default applies only when both the
override and the environment are unset.  A blank or whitespace-only
environment value counts as unset for every knob (the historical
behavior of each scattered call site, now uniform by construction).

Modules must not read ``os.environ`` for ``REPRO_*`` names directly;
they call the getters here.
``repro knobs`` renders the table for users; tests assert that every
``REPRO_*`` name mentioned anywhere in the source appears in it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "Knob",
    "KNOBS",
    "get_bool",
    "get_float",
    "get_int",
    "get_str",
    "knob_rows",
    "raw",
    "render_knob_table",
]

#: strings (lowercased) that mean "false" for boolean knobs — matching
#: the historical per-site conventions (anything else non-blank is true)
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class Knob:
    """One declared environment knob.

    Attributes
    ----------
    env:
        The environment variable name.
    kind:
        Value type: ``str`` / ``int`` / ``float`` / ``bool``.
    default:
        Human-readable default (what applies when flag and env are both
        unset) — documentation, not a parsed value; the consumer module
        owns the actual default object.
    description:
        One-line meaning.
    consumer:
        The module/flag that honors it.
    """

    env: str
    kind: str
    default: str
    description: str
    consumer: str


#: the single knob table — ordered as rendered by ``repro knobs``
KNOBS: Dict[str, Knob] = {
    k.env: k
    for k in [
        Knob("REPRO_JOBS", "int", "1",
             "engine worker processes (0 or negative = one per CPU)",
             "ExperimentEngine / --jobs"),
        Knob("REPRO_CACHE_DIR", "str", ".repro-cache",
             "run-cache root; study manifests live under <dir>/manifests/",
             "RunCache / --cache-dir"),
        Knob("REPRO_TRAFFIC_MODE", "str", "discrete",
             "traffic model: discrete per-message simulation or fluid rate charges",
             "fluid.plan / --traffic-mode"),
        Knob("REPRO_SPECULATE", "int", "off (width 1)",
             "speculative annealing width (1/true = default width 4)",
             "Study / --speculate"),
        Knob("REPRO_WARM_START", "bool", "on",
             "warm-start each scale's enabler walk from the previous scale",
             "Study / --no-warm-start"),
        Knob("REPRO_SERIES", "bool", "off",
             "attach a windowed F/G/H/E(t) monitoring plan ambiently",
             "telemetry.timeseries / repro series"),
        Knob("REPRO_SERIES_WINDOW", "float", "horizon/64",
             "monitoring window width (sim time units)",
             "telemetry.timeseries / --window"),
        Knob("REPRO_SERIES_PROBE_INTERVAL", "float", "horizon/200",
             "in-sim probe sweep period",
             "telemetry.timeseries / --probe-interval"),
        Knob("REPRO_SERIES_CHARGE_RATE", "float", "0 (free probes)",
             "G cost per probe sweep per monitored entity (charged to g.monitor)",
             "telemetry.timeseries / --charge-rate"),
        Knob("REPRO_TRACE_SAMPLE", "float", "0 (off; repro trace: 1)",
             "fraction of jobs traced, sampled deterministically",
             "telemetry.tracing / --trace-sample"),
        Knob("REPRO_TRACE_CHARGE_RATE", "float", "0.02 in repro trace",
             "G cost per recorded span (charged to g.trace; 0 = passive)",
             "telemetry.tracing / --trace-charge"),
        Knob("REPRO_TRACE_MAX_EVENTS", "int", "64",
             "span-DAG bound per traced job",
             "telemetry.tracing / --max-events"),
        Knob("REPRO_TELEMETRY", "bool", "off",
             "record spans/events/metrics for the invocation",
             "experiments.cli / --telemetry"),
        Knob("REPRO_TELEMETRY_DIR", "str", "telemetry",
             "root for per-run telemetry directories",
             "experiments.cli / --telemetry-dir"),
        Knob("REPRO_TELEMETRY_PROFILE", "bool", "off",
             "attach the sampling profiler to telemetry spans",
             "telemetry.profiler"),
        Knob("REPRO_FLIGHT_RECORDER", "bool", "off",
             "keep forensic ring buffers and dump crash bundles",
             "telemetry.flightrec / --flight-recorder"),
        Knob("REPRO_FLIGHT_DIR", "str", "flight-recorder",
             "flight-recorder bundle directory",
             "telemetry.flightrec / --flight-dir"),
        Knob("REPRO_LOG_LEVEL", "str", "warning",
             "logging verbosity (debug/info/warning/error/critical)",
             "experiments.cli / --log-level"),
    ]
}


def raw(env: str) -> Optional[str]:
    """The stripped environment value of a **declared** knob, or ``None``.

    Blank and whitespace-only values count as unset.  Undeclared names
    raise ``KeyError`` — new knobs must be added to :data:`KNOBS`, which
    is what keeps the table the single source of truth.
    """
    if env not in KNOBS:
        raise KeyError(f"undeclared environment knob {env!r}; add it to repro.envknobs.KNOBS")
    value = os.environ.get(env)
    if value is None:
        return None
    value = value.strip()
    return value or None


def get_str(env: str, override: Optional[str] = None, default: Optional[str] = None) -> Optional[str]:
    """Resolve a string knob: ``override`` > environment > ``default``."""
    if override is not None:
        return override
    value = raw(env)
    return default if value is None else value


def get_int(env: str, override: Optional[int] = None, default: Optional[int] = None) -> Optional[int]:
    """Resolve an integer knob: ``override`` > environment > ``default``.

    A malformed environment value raises ``ValueError`` naming the knob.
    """
    if override is not None:
        return int(override)
    value = raw(env)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {value!r}") from None


def get_float(env: str, override: Optional[float] = None, default: Optional[float] = None) -> Optional[float]:
    """Resolve a float knob: ``override`` > environment > ``default``.

    A malformed environment value raises ``ValueError`` naming the knob.
    """
    if override is not None:
        return float(override)
    value = raw(env)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{env} must be a number, got {value!r}") from None


def get_bool(env: str, override: Optional[bool] = None, default: bool = False) -> bool:
    """Resolve a boolean knob: ``override`` > environment > ``default``.

    Environment truthiness follows the package-wide convention: a blank
    value is unset; ``0/false/no/off`` (any case) are false; anything
    else is true.
    """
    if override is not None:
        return bool(override)
    value = raw(env)
    if value is None:
        return default
    return value.lower() not in _FALSE_WORDS


# ---------------------------------------------------------------------------
# The rendered table (``repro knobs``) and the deprecation shim
# ---------------------------------------------------------------------------

def knob_rows() -> List[List[str]]:
    """The knob table as rows (env, type, default, consumer, description)."""
    return [
        [k.env, k.kind, k.default, k.consumer, k.description]
        for k in KNOBS.values()
    ]


def render_knob_table() -> str:
    """Human-readable knob table, with the precedence rule on top."""
    lines = [
        "environment knobs (precedence: CLI flag > environment > default)",
        "",
    ]
    width = max(len(k.env) for k in KNOBS.values())
    for k in KNOBS.values():
        lines.append(f"  {k.env.ljust(width)}  [{k.kind}] {k.description}")
        lines.append(f"  {' ' * width}  default: {k.default}; consumer: {k.consumer}")
    return "\n".join(lines)

