"""Shared argparse building blocks, derived from :class:`StudySpec`.

Before this module every simulation-running subcommand re-declared the
same dozen flags; now each flag that maps onto a
:class:`~repro.experiments.spec.StudySpec` field is declared **once**,
with its default pulled straight from the dataclass (so the parser and
the spec cannot drift), and subcommands compose the parents they need::

    sub.add_parser("faults", parents=[study_parent(), engine_parent()])

:func:`spec_from_args` is the inverse direction — the one place a
parsed namespace becomes a ``StudySpec``.  Between the two, the CLI is
a thin shell around :func:`repro.api.run_study`: flags in, spec
through, report out.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Optional, Tuple

from .spec import StudySpec

__all__ = [
    "engine_parent",
    "parse_probe_intervals",
    "parse_rms",
    "spec_from_args",
    "study_parent",
]

#: default root for per-run telemetry directories (shared with cli.py)
DEFAULT_TELEMETRY_DIR = "telemetry"

_SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(StudySpec)}


def _spec_default(name: str) -> Any:
    """The StudySpec default behind a flag (parser/spec anti-drift)."""
    return _SPEC_DEFAULTS[name]


def study_parent() -> argparse.ArgumentParser:
    """Parent with the flags every study kind shares: ``--rms``, ``--seed``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--rms",
        default=None,
        help="comma-separated subset of designs",
    )
    p.add_argument("--seed", type=int, default=_spec_default("seed"))
    return p


def engine_parent() -> argparse.ArgumentParser:
    """Parent with the engine/execution flags (one declaration for all).

    Everything here is execution mechanics or ambient instrumentation —
    none of it changes the measured numbers (``spec_digest`` excludes
    the spec-backed subset for exactly that reason).
    """
    from ..telemetry import flightrec

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--jobs",
        type=int,
        default=_spec_default("jobs"),
        help="worker processes (default: $REPRO_JOBS or 1; 0 = one per CPU)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read the run cache (fresh results are still written)",
    )
    p.add_argument(
        "--cache-dir",
        default=_spec_default("cache_dir"),
        help="run-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/events/metrics for this invocation "
        "(also: REPRO_TELEMETRY=1)",
    )
    p.add_argument(
        "--telemetry-dir",
        default=None,
        help="root for per-run telemetry directories "
        f"(default: $REPRO_TELEMETRY_DIR or {DEFAULT_TELEMETRY_DIR}/)",
    )
    p.add_argument(
        "--flight-recorder",
        action="store_true",
        help="keep rolling forensic ring buffers (kernel events, ledger "
        "charges, tuner moves) and dump a JSON bundle on crash, cancel, "
        "or invariant trip (also: REPRO_FLIGHT_RECORDER=1)",
    )
    p.add_argument(
        "--flight-dir",
        default=None,
        help="flight-recorder bundle directory "
        f"(default: $REPRO_FLIGHT_DIR or {flightrec.DEFAULT_DIR}/)",
    )
    p.add_argument(
        "--traffic-mode",
        default=_spec_default("traffic_mode"),
        choices=["discrete", "fluid"],
        help="traffic model for every simulation (default: "
        "$REPRO_TRAFFIC_MODE or discrete); fluid replaces bulk periodic "
        "status/keepalive/heartbeat events with closed-form rate charges "
        "so extreme-scale cases (k=1e5-1e6 resources) stay measurable",
    )
    p.add_argument(
        "--aggregator-fanout",
        type=int,
        default=_spec_default("aggregator_fanout"),
        metavar="N",
        help="fluid mode only: fan-out of the hierarchical status-"
        "estimator tree (>= 2; default 0 = flat)",
    )
    return p


def fault_plan_parent(help_text: str) -> argparse.ArgumentParser:
    """Parent with the ``--fault-plan FILE`` flag (per-command help)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--fault-plan", default=None, metavar="FILE", help=help_text)
    return p


# ---------------------------------------------------------------------------
# namespace -> spec
# ---------------------------------------------------------------------------

def parse_rms(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """``"LOWEST,CENTRAL"`` -> ``("LOWEST", "CENTRAL")`` (None passes)."""
    if not text:
        return None
    return tuple(x.strip() for x in text.split(",") if x.strip())


def parse_probe_intervals(text: Optional[str]) -> Tuple[float, ...]:
    """``"30,60,120"`` -> ``(30.0, 60.0, 120.0)``; raises ``ValueError``."""
    if not text:
        return ()
    return tuple(float(x) for x in text.split(","))


def spec_from_args(kind: str, args: argparse.Namespace, **overrides: Any) -> StudySpec:
    """Build the :class:`StudySpec` a parsed CLI namespace describes.

    Only attributes present on the namespace are consulted, so one
    function serves every subcommand regardless of which parents it
    composed.  ``overrides`` win over namespace values (the fault plan,
    already loaded from its file, arrives this way).
    """

    def g(name: str, default: Any = None) -> Any:
        return getattr(args, name, default)

    fields: dict = dict(
        kind=kind,
        figure=g("number") if kind == "figure" else None,
        profile=g("profile", "ci"),
        rms=parse_rms(g("rms")),
        seed=g("seed", _spec_default("seed")),
        sa_iterations=g("sa_iterations"),
        speculate=g("speculate"),
        warm_start=False if g("no_warm_start") else None,
        traffic_mode=g("traffic_mode"),
        aggregator_fanout=g("aggregator_fanout"),
        mttf=g("mttf"),
        mttr=g("mttr"),
        window=g("window"),
        probe_intervals=parse_probe_intervals(g("probe_interval")),
        charge_rate=g("charge_rate"),
        trace_sample=g("trace_sample"),
        trace_charge=g("trace_charge"),
        max_events=g("max_events"),
        jobs=g("jobs"),
        cache_dir=g("cache_dir"),
        no_cache=bool(g("no_cache", False)),
        resume=bool(g("resume", False)),
        quantity=g("quantity"),
        precision=g("precision"),
    )
    fields.update(overrides)
    return StudySpec(**fields)
