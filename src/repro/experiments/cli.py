"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro figure 2                  # Figure 2, ci profile
    python -m repro figure 4 --profile full   # paper-scale (slow)
    python -m repro figure 2 --jobs 4         # fan runs over 4 processes
    python -m repro figure 2 --resume         # restart a killed sweep
    python -m repro figure 2 --telemetry      # record spans/metrics
    python -m repro figure 6 --csv out.csv    # also dump the series
    python -m repro figure 2 --speculate 4    # speculative batched annealing
    python -m repro figure 2 --no-warm-start  # cold-start every scale walk
    python -m repro figure 2 --flight-recorder # forensic rings + crash bundles
    python -m repro compare                   # quick 7-design comparison
    python -m repro faults                    # churn study: G(k) under faults
    python -m repro faults --mttf 3000        # tune the crash rate
    python -m repro faults --fault-plan p.json --events-out ev.jsonl
    python -m repro series                    # time-resolved E(t)/G(t) study
    python -m repro series --probe-interval 30,60,120 --charge-rate 0.05
    python -m repro series --csv s.csv --prom s.prom  # exports
    python -m repro trace                     # causal job tracing study
    python -m repro trace --trace-sample 0.25 --jsonl t.jsonl
    python -m repro serve --port 7464         # fabric coordinator
    python -m repro work 127.0.0.1:7464       # attach one fabric worker
    python -m repro submit compare --address 127.0.0.1:7464
    python -m repro knobs                     # the REPRO_* knob table
    python -m repro watch --once              # snapshot a running study
    python -m repro bench-perf                # perf record -> BENCH_perf.json
    python -m repro bench-check               # perf watchdog vs the record
    python -m repro attrib                    # which component makes G(k) grow
    python -m repro telemetry summary         # inspect the latest run
    python -m repro telemetry tuner           # annealing convergence
    python -m repro list                      # what can be regenerated

Every simulation-running subcommand is a thin shell around the same
pipeline: its flags build a frozen
:class:`~repro.experiments.spec.StudySpec`
(:func:`~repro.experiments.cliargs.spec_from_args`), the spec runs
through :func:`repro.api.run_study`, and the rendered report prints.
The shared flags are declared once in :mod:`~repro.experiments.cliargs`
with defaults pulled from the dataclass, so the parser and the spec
cannot drift.

Simulations execute through the parallel experiment engine: ``--jobs
N`` (or ``REPRO_JOBS``) fans independent runs over worker processes,
results persist in a content-addressed run cache (``.repro-cache/`` or
``--cache-dir``; ``--no-cache`` skips reads but still writes), and
``--resume`` checkpoints completed points so a killed sweep restarts
where it left off.

``repro serve`` starts the distributed-fabric coordinator; ``repro
work HOST:PORT`` attaches lease-executing workers; ``repro submit``
ships a StudySpec to a coordinator and prints the identical report a
local run would.  The same spec run locally with ``--jobs N`` or
through the fabric produces byte-identical cache entries and
manifests.

``--telemetry`` (or ``REPRO_TELEMETRY=1``) records structured spans,
events, and metrics for the whole invocation into a fresh directory
under ``telemetry/`` (``--telemetry-dir`` to relocate); ``repro
telemetry {summary,spans,tuner}`` renders those files afterwards.
``--flight-recorder`` (or ``REPRO_FLIGHT_RECORDER=1``) additionally
keeps rolling forensic ring buffers and dumps a post-mortem JSON
bundle under ``flight-recorder/`` when a run crashes, is cancelled, or
trips an invariant.  ``repro attrib`` renders the per-component F/G/H
overhead decomposition a study records; ``repro bench-check`` is the
perf-regression watchdog against the tracked ``BENCH_perf.json``.
``repro knobs`` prints the full ``REPRO_*`` environment-knob table
(one registry backs every lookup: flag > env > default).

Logging verbosity is ``--log-level`` / ``REPRO_LOG_LEVEL`` (default
``warning``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .. import api
from ..envknobs import get_bool, get_str
from ..telemetry import Telemetry, activate
from ..telemetry import flightrec
from .benchcheck import DEFAULT_FAIL_TOLERANCE, DEFAULT_WARN_TOLERANCE
from .cliargs import (
    DEFAULT_TELEMETRY_DIR,
    engine_parent,
    fault_plan_parent,
    spec_from_args,
    study_parent,
)
from .config import PROFILES
from .parallel import ExperimentEngine
from .reporting import format_table, write_csv
from .reproduce import DEFAULT_SPECULATION_WIDTH, Study
from .spec import KINDS, StudySpec, spec_from_jsonable

__all__ = ["main"]

#: default TCP port of `repro serve` (any free port with --port 0)
DEFAULT_FABRIC_PORT = 7464


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [2, "Case 1", "G(k), RP scaled by network size"],
        [3, "Case 2", "G(k), RP scaled by service rate"],
        [4, "Case 3", "G(k), RMS scaled by estimators"],
        [5, "Case 4", "G(k), RMS scaled by L_p"],
        [6, "Case 3", "throughput under estimator scaling"],
        [7, "Case 3", "response times under estimator scaling"],
    ]
    print(format_table(["figure", "experiment", "series"], rows))
    print("\n(`repro faults` runs the Case-1 churn study — G(k) under resource faults)")
    print(f"\nprofiles: {', '.join(sorted(PROFILES))}")
    profile = PROFILES[args.profile]
    print(
        f"{profile.name}: {profile.base_resources} resources x "
        f"{profile.base_schedulers} schedulers at k=1, "
        f"scales {list(profile.scales)}, horizon {profile.horizon:g}"
    )
    return 0


def _load_fault_plan(path: str):
    """Parse a ``FaultPlan`` JSON file (``plan_to_jsonable`` shape).

    Returns ``None`` (after printing a one-line error) when the file is
    missing or malformed; callers turn that into exit code 2.
    """
    from ..faults import plan_from_jsonable

    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        return plan_from_jsonable(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read fault plan {path}: {exc}", file=sys.stderr)
        return None


def _cache_root(args: argparse.Namespace) -> str:
    """The run-cache directory this invocation uses (flag > env > default)."""
    from .parallel.cache import DEFAULT_CACHE_DIR

    return get_str(
        "REPRO_CACHE_DIR",
        override=getattr(args, "cache_dir", None),
        default=DEFAULT_CACHE_DIR,
    )


def _make_engine(spec: StudySpec) -> ExperimentEngine:
    """Build the experiment engine a spec asks for.

    Stays in this module (rather than always delegating to
    :func:`repro.api.engine_for_spec`) so the engine class is this
    module's patchable global.
    """
    return ExperimentEngine(jobs=spec.jobs, cache=api.cache_for_spec(spec))


@contextmanager
def _telemetry_scope(args: argparse.Namespace) -> Iterator[Optional[Telemetry]]:
    """Activate a per-invocation telemetry session when one was requested.

    ``--telemetry`` or ``REPRO_TELEMETRY=1`` opts in; each invocation
    gets a fresh timestamped directory under ``--telemetry-dir`` (or
    ``$REPRO_TELEMETRY_DIR``, default ``telemetry/``) so successive runs
    never interleave.  Yields ``None`` when telemetry is off.
    """
    enabled = getattr(args, "telemetry", False) or get_bool("REPRO_TELEMETRY")
    if not enabled:
        yield None
        return
    root = Path(
        get_str(
            "REPRO_TELEMETRY_DIR",
            override=getattr(args, "telemetry_dir", None),
            default=DEFAULT_TELEMETRY_DIR,
        )
    )
    run_dir = root / time.strftime(f"run-%Y%m%d-%H%M%S-{os.getpid()}")
    session = Telemetry(run_dir)
    try:
        with activate(session):
            yield session
    finally:
        session.close()
        print(f"telemetry written to {run_dir}", file=sys.stderr)


@contextmanager
def _flight_scope(args: argparse.Namespace) -> Iterator[Optional[flightrec.FlightRecorder]]:
    """Enable the flight recorder when requested (flag or env).

    Enablement deliberately goes through the environment:
    ``ExperimentEngine`` pool workers inherit ``REPRO_FLIGHT_RECORDER``
    and record/dump independently (bundles are PID-stamped), while the
    parent process records its own inline window.  A cancellation that
    no run-level handler already bundled is dumped here.  Yields
    ``None`` when recording is off.
    """
    requested = getattr(args, "flight_recorder", False)
    if not requested and not get_bool(flightrec.ENV_ENABLE):
        yield None
        return
    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir:
        os.environ[flightrec.ENV_DIR] = flight_dir
    os.environ[flightrec.ENV_ENABLE] = "1"
    rec = flightrec.enable(flight_dir)
    try:
        yield rec
    except KeyboardInterrupt as exc:
        if not getattr(exc, "_flightrec_dumped", False):
            rec.dump("run.cancelled", error=exc, context={"where": "cli"})
            exc._flightrec_dumped = True
        raise
    finally:
        if rec.bundles:
            for path in rec.bundles:
                print(f"flight-recorder bundle written: {path}", file=sys.stderr)
        flightrec.disable()


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number not in api.FIGURE_QUANTITY:
        print(f"error: the paper has figures 2-7, not {args.number}", file=sys.stderr)
        return 2
    spec = spec_from_args("figure", args)
    with _telemetry_scope(args), _flight_scope(args), _make_engine(spec) as engine:
        result = api.run_study(spec, engine=engine, study_cls=Study)
    print(result.report)
    if args.csv:
        quantity = spec.quantity or api.FIGURE_QUANTITY[spec.figure_number]
        write_csv(result.data, args.csv, quantity)
        print(f"series written to {args.csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    plan = None
    if args.fault_plan:
        plan = _load_fault_plan(args.fault_plan)
        if plan is None:
            return 2
    spec = spec_from_args("compare", args, faults=plan)
    with _telemetry_scope(args), _flight_scope(args), _make_engine(spec) as engine:
        result = api.run_study(spec, engine=engine)
    print(result.report)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    plan = None
    if args.fault_plan:
        plan = _load_fault_plan(args.fault_plan)
        if plan is None:
            return 2
    spec = spec_from_args("faults", args, faults=plan)
    with _telemetry_scope(args), _flight_scope(args), _make_engine(spec) as engine:
        result = api.run_study(spec, engine=engine)
    print(result.report)
    print(
        f"\nmanifest written to {result.manifest_path} "
        f"(decompose with `repro attrib {result.manifest_path}`)"
    )
    if args.events_out:
        _dump_fault_events(result.data, args.events_out)
    return 0


def _dump_fault_events(result, path: str) -> None:
    """Re-run the study's smallest config in-process and dump the
    injector's fault-event timeline as JSONL (one event per line)."""
    from .cases import get_case
    from .runner import build_system

    name = next(iter(result.series))
    profile = PROFILES[result.profile]
    config = get_case(1).config_for(
        name, profile.scales[0], profile, seed=result.seed, faults=result.plan
    )
    system = build_system(config)
    system.sim.run(until=config.horizon + config.drain)
    events = [] if system.injector is None else system.injector.events
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    print(f"{len(events)} fault events ({name}, k={profile.scales[0]:g}) written to {path}")


def _cmd_series(args: argparse.Namespace) -> int:
    from .seriesstudy import export_csv, export_jsonl, export_prometheus

    try:
        spec = spec_from_args("series", args)
    except ValueError:
        print(
            f"error: --probe-interval must be comma-separated numbers, "
            f"got {args.probe_interval!r}",
            file=sys.stderr,
        )
        return 2
    with _telemetry_scope(args), _flight_scope(args), _make_engine(spec) as engine:
        result = api.run_study(spec, engine=engine)
    print(result.report)
    print(
        f"\nmanifest written to {result.manifest_path} "
        f"(decompose with `repro attrib {result.manifest_path}`, "
        f"tail with `repro watch {result.manifest_path}`)"
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            n = export_csv(result.data, fh)
        print(f"{n} window rows written to {args.csv}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            n = export_jsonl(result.data, fh)
        print(f"{n} run series written to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            n = export_prometheus(result.data, fh)
        print(f"{n} Prometheus samples written to {args.prom}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .tracestudy import (
        default_trace_plan,
        export_csv,
        export_jsonl,
        export_prometheus,
    )

    faults = None
    if args.fault_plan:
        faults = _load_fault_plan(args.fault_plan)
        if faults is None:
            return 2
    # pre-validate the trace knobs so a bad flag is a one-line error
    try:
        default_trace_plan(
            sample=args.trace_sample,
            charge_rate=args.trace_charge,
            max_events=args.max_events,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = spec_from_args("trace", args, faults=faults)
    with _telemetry_scope(args), _flight_scope(args), _make_engine(spec) as engine:
        result = api.run_study(spec, engine=engine)
    print(result.report)
    print(
        f"\nmanifest written to {result.manifest_path} "
        f"(decompose with `repro attrib {result.manifest_path}`)"
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            n = export_csv(result.data, fh)
        print(f"{n} phase rows written to {args.csv}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            n = export_jsonl(result.data, fh)
        print(f"{n} run traces written to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            n = export_prometheus(result.data, fh)
        print(f"{n} Prometheus samples written to {args.prom}")
    return 0


# ---------------------------------------------------------------------------
# fabric subcommands
# ---------------------------------------------------------------------------

def _parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (raises ``ValueError``)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must look like HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..fabric import Coordinator

    coordinator = Coordinator(
        host=args.host, port=args.port, heartbeat_timeout=args.heartbeat_timeout
    )
    try:
        coordinator.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    host, port = coordinator.address
    print(f"fabric coordinator listening on {host}:{port}", flush=True)
    print(
        f"attach workers with `repro work {host}:{port}`; submit studies "
        f"with `repro submit <kind> --address {host}:{port}`",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\ncoordinator stopped", file=sys.stderr)
        return 0
    finally:
        coordinator.stop()


def _cmd_work(args: argparse.Namespace) -> int:
    from ..fabric import Worker

    try:
        address = _parse_address(args.address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worker = Worker(
        address,
        worker_id=args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        reconnect_attempts=args.reconnect_attempts,
    )
    try:
        executed = worker.run()
    except ConnectionRefusedError:
        print(
            f"error: no coordinator at {args.address} — start one with "
            "`repro serve`",
            file=sys.stderr,
        )
        return 2
    print(f"worker {worker.worker_id} done: {executed} lease(s) executed",
          file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    try:
        address = _parse_address(args.address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.spec_file:
        try:
            spec = spec_from_jsonable(
                json.loads(Path(args.spec_file).read_text("utf-8"))
            )
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot read spec {args.spec_file}: {exc}", file=sys.stderr)
            return 2
    else:
        if args.kind is None:
            print("error: give a study kind (or --spec FILE)", file=sys.stderr)
            return 2
        plan = None
        if getattr(args, "fault_plan", None):
            plan = _load_fault_plan(args.fault_plan)
            if plan is None:
                return 2
        if args.kind == "figure":
            args.number = args.figure
        try:
            spec = spec_from_args(args.kind, args, faults=plan)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = api.submit_study(spec, address, timeout=args.timeout)
    except ConnectionRefusedError:
        print(
            f"error: no coordinator at {args.address} — start one with "
            "`repro serve`",
            file=sys.stderr,
        )
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.report)
    if result.manifest_path is not None:
        print(
            f"\nmanifest written to {result.manifest_path} (on the coordinator)"
        )
    return 0


def _cmd_knobs(args: argparse.Namespace) -> int:
    from ..envknobs import render_knob_table

    print(render_knob_table())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .watch import watch

    target = args.target or str(Path(_cache_root(args)) / "manifests")
    try:
        watch(
            target,
            interval=args.interval,
            once=args.once,
            max_snapshots=args.max_snapshots,
        )
    except KeyboardInterrupt:
        # leaving a live watch is the normal exit, not an error
        print()
        return 0
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from .benchperf import render_report, run_bench, write_bench

    payload = run_bench(
        profile=args.profile,
        rms=args.rms.split(",") if args.rms else None,
        case_id=args.case,
        seed=args.seed,
        sa_iterations=args.sa_iterations,
        jobs=args.jobs,
        speculation=args.speculate,
        kernel_events=args.kernel_events,
        fel_events=args.fel_events,
        include_fluid=args.fluid,
    )
    print(render_report(payload))
    path = write_bench(payload, args.output)
    print(f"benchmark record written to {path}")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .benchcheck import (
        compare_bench,
        load_baseline,
        render_checks,
        run_current_bench,
        worst_status,
    )

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(
            f"error: baseline {args.baseline} not found — run "
            "`repro bench-perf` first to record one",
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    if args.current:
        try:
            current = load_baseline(args.current)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.current}: {exc}", file=sys.stderr)
            return 2
    else:
        current = run_current_bench(
            baseline,
            jobs=args.jobs,
            rms=args.rms.split(",") if args.rms else None,
            profile=args.profile,
        )
    try:
        checks = compare_bench(
            baseline, current, args.warn_tolerance, args.fail_tolerance
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_checks(checks, args.warn_tolerance, args.fail_tolerance,
                        warn_only=args.warn_only))
    return 1 if (worst_status(checks) == "fail" and not args.warn_only) else 0


def _cmd_attrib(args: argparse.Namespace) -> int:
    from .attrib import attrib_report, check_conservation, load_points

    source = args.source
    if source is None:
        candidates = [
            Path(_cache_root(args)) / "manifests" / "study.json",
            Path(_cache_root(args)) / "manifests" / "faults.json",
            Path(DEFAULT_TELEMETRY_DIR),
        ]
        source = next((c for c in candidates if c.exists()), None)
        if source is None:
            print(
                "error: no attribution source found — run a study with "
                "--resume (for a manifest) or --telemetry first, or pass "
                "a manifest file / telemetry run directory",
                file=sys.stderr,
            )
            return 2
    try:
        points = load_points(source)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return 2
    print(attrib_report(points, top=args.top, rms=args.rms))
    # a conservation violation is a red verdict for scripts/CI too
    violated = any(check_conservation(p) for p in points if p.attribution)
    return 1 if violated else 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from ..telemetry.report import (
        load_run,
        resolve_run_dir,
        spans_report,
        summary_report,
        tuner_report,
    )

    try:
        run_dir = resolve_run_dir(args.dir)
        run = load_run(run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # unreadable/garbled records (e.g. a run killed mid-write):
        # a one-line diagnosis, not a traceback
        print(
            f"error: cannot read telemetry under {run_dir}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not run.records:
        print(
            f"error: {run_dir} contains no telemetry records — "
            "the run recorded nothing (or only unparseable lines)",
            file=sys.stderr,
        )
        return 2
    if args.view == "summary":
        print(summary_report(run))
    elif args.view == "spans":
        print(spans_report(run, top=args.top, name=args.name))
    elif args.view == "tuner":
        print(tuner_report(run, rms=args.rms, scale=args.scale))
    return 0


#: one place documenting the flag conventions shared across subcommands
_EPILOG = """\
flag conventions (uniform across subcommands):
  --profile {ci,full,extreme}
                       scale profile; every subcommand accepts it
                       (report-only subcommands take it for interface
                       uniformity and profile-dependent defaults;
                       extreme pairs with --traffic-mode fluid)
  --fault-plan FILE    JSON FaultPlan (the repro.faults plan_to_jsonable
                       shape) applied to every run of the invocation
                       (accepted by: faults, compare, trace, submit)
  --cache-dir DIR      run-cache root ($REPRO_CACHE_DIR, default
                       .repro-cache/); study manifests live under
                       <cache-dir>/manifests/
  --telemetry-dir DIR  root for per-run telemetry directories
                       ($REPRO_TELEMETRY_DIR, default telemetry/)
  REPRO_* knobs        every environment knob is listed by `repro knobs`
                       with type, default, and consumer; precedence is
                       always flag > environment > default
  REPRO_SERIES[_*]     ambient time-resolved monitoring knobs
                       (REPRO_SERIES=1, REPRO_SERIES_WINDOW,
                       REPRO_SERIES_PROBE_INTERVAL,
                       REPRO_SERIES_CHARGE_RATE); `repro series` flags
                       override them, other subcommands (compare) pick
                       them up ambiently
  REPRO_TRACE_*        ambient causal-tracing knobs (REPRO_TRACE_SAMPLE,
                       REPRO_TRACE_CHARGE_RATE, REPRO_TRACE_MAX_EVENTS);
                       `repro trace` flags override them; any run built
                       with a nonzero sample records span DAGs
"""


def _add_profile_arg(sub: argparse.ArgumentParser, default: "str | None" = "ci") -> None:
    """The uniform ``--profile`` flag (every subcommand takes it)."""
    sub.add_argument(
        "--profile",
        default=default,
        choices=sorted(PROFILES),
        help="scale profile" + ("" if default else " (default: the source's own)"),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    study = study_parent()
    engine = engine_parent()

    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Measuring Scalability of "
        "Resource Management Systems' (IPDPS 2005).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="logging verbosity (default: $REPRO_LOG_LEVEL or warning)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list regenerable figures")
    _add_profile_arg(lst)
    lst.set_defaults(fn=_cmd_list)

    fig = sub.add_parser(
        "figure", help="regenerate one paper figure", parents=[study, engine]
    )
    fig.add_argument("number", type=int, help="figure number (2-7)")
    _add_profile_arg(fig)
    fig.add_argument("--sa-iterations", type=int, default=None)
    fig.add_argument("--quantity", default=None, help="override plotted quantity")
    fig.add_argument("--precision", type=int, default=1)
    fig.add_argument("--csv", default=None, help="also write the series to CSV")
    fig.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint completed (case, RMS) points and skip them on restart",
    )
    fig.add_argument(
        "--speculate",
        type=int,
        nargs="?",
        const=DEFAULT_SPECULATION_WIDTH,
        default=None,
        metavar="W",
        help="speculative annealing width: propose W neighbors per round and "
        f"evaluate them as one engine batch (bare flag: {DEFAULT_SPECULATION_WIDTH}; "
        "also $REPRO_SPECULATE)",
    )
    fig.add_argument(
        "--no-warm-start",
        action="store_true",
        help="tune every scale from the enabler defaults instead of the "
        "previous scale's tuned settings (also $REPRO_WARM_START=0)",
    )
    fig.set_defaults(fn=_cmd_figure)

    faults = sub.add_parser(
        "faults",
        help="churn study: Case-1 G(k) under a fault-injection plan",
        parents=[
            study,
            engine,
            fault_plan_parent(
                "JSON FaultPlan to inject instead of the default churn plan"
            ),
        ],
    )
    _add_profile_arg(faults)
    faults.add_argument(
        "--mttf",
        type=float,
        default=None,
        help="resource mean time to failure (default: horizon / 4)",
    )
    faults.add_argument(
        "--mttr",
        type=float,
        default=None,
        help="resource mean time to recovery (default: MTTF / 10)",
    )
    faults.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="also dump the smallest config's fault-event timeline as JSONL",
    )
    faults.add_argument("--precision", type=int, default=1)
    faults.set_defaults(fn=_cmd_faults)

    ser = sub.add_parser(
        "series",
        help="time-resolved study: windowed F/G/H/E(t) streams with in-sim probes",
        parents=[study, engine],
    )
    _add_profile_arg(ser)
    ser.add_argument(
        "--window",
        type=float,
        default=None,
        help="sim-time window width (default: $REPRO_SERIES_WINDOW or horizon/64)",
    )
    ser.add_argument(
        "--probe-interval",
        default=None,
        metavar="T[,T...]",
        help="in-sim probe interval; extra comma-separated values run an "
        "overhead/accuracy sweep at the base scale "
        "(default: $REPRO_SERIES_PROBE_INTERVAL or horizon/200)",
    )
    ser.add_argument(
        "--charge-rate",
        type=float,
        default=None,
        help="G cost per probe sweep per monitored entity, charged to "
        "g.monitor (default: $REPRO_SERIES_CHARGE_RATE or 0 = free probes)",
    )
    ser.add_argument("--precision", type=int, default=3)
    ser.add_argument("--csv", default=None, help="write per-window rows as CSV")
    ser.add_argument("--jsonl", default=None, help="write one series per run as JSONL")
    ser.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write Prometheus text exposition of final/steady quantities",
    )
    ser.set_defaults(fn=_cmd_series)

    trc = sub.add_parser(
        "trace",
        help="causal tracing study: critical-path phase decomposition per job",
        parents=[
            study,
            engine,
            fault_plan_parent(
                "JSON FaultPlan applied to every run (failed dispatches and "
                "redispatch waits then appear as the recovery_wait phase)"
            ),
        ],
    )
    _add_profile_arg(trc)
    trc.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="FRAC",
        help="fraction of jobs traced, sampled deterministically by "
        "hash(seed, job id) (default: $REPRO_TRACE_SAMPLE or 1 = every job)",
    )
    trc.add_argument(
        "--trace-charge",
        type=float,
        default=None,
        metavar="COST",
        help="G cost per recorded span, charged to g.trace "
        "(default: $REPRO_TRACE_CHARGE_RATE or 0.02; 0 = passive plan "
        "that shares cache keys with untraced runs)",
    )
    trc.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="span-DAG bound per traced job; completion always records "
        "(default: $REPRO_TRACE_MAX_EVENTS or 64)",
    )
    trc.add_argument("--precision", type=int, default=3)
    trc.add_argument("--csv", default=None, help="write per-phase rows as CSV")
    trc.add_argument(
        "--jsonl", default=None, help="write one full trace payload per run as JSONL"
    )
    trc.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write Prometheus text exposition of phase/latency/overhead samples",
    )
    trc.set_defaults(fn=_cmd_trace)

    srv = sub.add_parser(
        "serve",
        help="fabric coordinator: accept studies and workers on one socket",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port",
        type=int,
        default=DEFAULT_FABRIC_PORT,
        help=f"bind port (default {DEFAULT_FABRIC_PORT}; 0 = any free port)",
    )
    srv.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        metavar="SEC",
        help="silence after which a worker is declared failed and its "
        "leases requeue (default 10)",
    )
    srv.set_defaults(fn=_cmd_serve)

    wrk = sub.add_parser(
        "work",
        help="fabric worker: execute simulation leases for a coordinator",
    )
    wrk.add_argument(
        "address",
        nargs="?",
        default=f"127.0.0.1:{DEFAULT_FABRIC_PORT}",
        help=f"coordinator HOST:PORT (default 127.0.0.1:{DEFAULT_FABRIC_PORT})",
    )
    wrk.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity across reconnects (default: host-pid)",
    )
    wrk.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between heartbeats (keep well under the "
        "coordinator's --heartbeat-timeout)",
    )
    wrk.add_argument(
        "--reconnect-attempts",
        type=int,
        default=3,
        help="times a lost coordinator connection is retried (with a "
        "bumped incarnation) before giving up",
    )
    wrk.set_defaults(fn=_cmd_work)

    sbm = sub.add_parser(
        "submit",
        help="ship a StudySpec to a `repro serve` coordinator and await "
        "the (byte-identical) report",
        parents=[
            study,
            engine,
            fault_plan_parent("JSON FaultPlan applied to every run"),
        ],
    )
    sbm.add_argument(
        "kind",
        nargs="?",
        choices=list(KINDS),
        help="study kind to submit (or use --spec FILE)",
    )
    _add_profile_arg(sbm)
    sbm.add_argument(
        "--address",
        default=f"127.0.0.1:{DEFAULT_FABRIC_PORT}",
        help=f"coordinator HOST:PORT (default 127.0.0.1:{DEFAULT_FABRIC_PORT})",
    )
    sbm.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="give up waiting for the result after SEC seconds",
    )
    sbm.add_argument(
        "--spec",
        dest="spec_file",
        default=None,
        metavar="FILE",
        help="submit a spec_to_jsonable JSON file instead of building "
        "one from flags",
    )
    sbm.add_argument("--figure", type=int, default=None, help="figure number (2-7)")
    sbm.add_argument("--sa-iterations", type=int, default=None)
    sbm.add_argument("--quantity", default=None, help="override plotted quantity")
    sbm.add_argument("--precision", type=int, default=None)
    sbm.add_argument("--resume", action="store_true")
    sbm.add_argument("--speculate", type=int, nargs="?",
                     const=DEFAULT_SPECULATION_WIDTH, default=None, metavar="W")
    sbm.add_argument("--no-warm-start", action="store_true")
    sbm.add_argument("--mttf", type=float, default=None)
    sbm.add_argument("--mttr", type=float, default=None)
    sbm.add_argument("--window", type=float, default=None)
    sbm.add_argument("--probe-interval", default=None, metavar="T[,T...]")
    sbm.add_argument("--charge-rate", type=float, default=None)
    sbm.add_argument("--trace-sample", type=float, default=None, metavar="FRAC")
    sbm.add_argument("--trace-charge", type=float, default=None, metavar="COST")
    sbm.add_argument("--max-events", type=int, default=None, metavar="N")
    sbm.set_defaults(fn=_cmd_submit)

    knb = sub.add_parser(
        "knobs",
        help="print the REPRO_* environment-knob table (type, default, consumer)",
    )
    knb.set_defaults(fn=_cmd_knobs)

    wat = sub.add_parser(
        "watch",
        help="tail a running study's manifest and render live progress",
    )
    wat.add_argument(
        "target",
        nargs="?",
        default=None,
        help="manifest file or cache root (default: <cache-dir>/manifests/, "
        "newest manifest wins)",
    )
    wat.add_argument(
        "--interval", type=float, default=2.0, help="poll interval in seconds"
    )
    wat.add_argument(
        "--once", action="store_true", help="render one snapshot and exit"
    )
    wat.add_argument(
        "--max-snapshots",
        type=int,
        default=0,
        help="stop after N printed snapshots (0 = until interrupted)",
    )
    wat.add_argument(
        "--cache-dir",
        default=None,
        help="run-cache root to resolve the default target from",
    )
    wat.set_defaults(fn=_cmd_watch)

    bench = sub.add_parser(
        "bench-perf",
        help="measure kernel/sim/study performance and write BENCH_perf.json",
        parents=[study],
    )
    _add_profile_arg(bench)
    bench.add_argument("--case", type=int, default=1, help="experiment case (1-4)")
    bench.add_argument("--sa-iterations", type=int, default=None)
    bench.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker count of the parallel study arm (default 4)",
    )
    bench.add_argument(
        "--speculate",
        type=int,
        default=DEFAULT_SPECULATION_WIDTH,
        metavar="W",
        help=f"speculation width of the tuned arms (default {DEFAULT_SPECULATION_WIDTH})",
    )
    bench.add_argument(
        "--kernel-events",
        type=int,
        default=200_000,
        help="event count of the kernel storm micro-benchmark",
    )
    bench.add_argument(
        "--fel-events",
        type=int,
        default=1_000_000,
        help="pending-event count of the kernel future-event-list scaling case",
    )
    bench.add_argument(
        "--no-fluid",
        dest="fluid",
        action="store_false",
        help="skip the fluid-vs-discrete section (it includes a "
        "minutes-long extreme-scale run); bench-check skips, not "
        "fails, the missing section",
    )
    bench.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="where to write the benchmark record (default BENCH_perf.json)",
    )
    bench.set_defaults(fn=_cmd_bench_perf, fluid=True)

    check = sub.add_parser(
        "bench-check",
        help="perf-regression watchdog: fresh bench-perf vs the tracked record",
    )
    _add_profile_arg(check, default=None)
    check.add_argument(
        "--baseline",
        default="BENCH_perf.json",
        help="tracked benchmark record to compare against (default BENCH_perf.json)",
    )
    check.add_argument(
        "--current",
        default=None,
        metavar="PATH",
        help="compare an existing bench-perf record instead of running a fresh one",
    )
    check.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="override the fresh run's worker count (incompatible study "
        "arms are skipped, not failed)",
    )
    check.add_argument(
        "--rms",
        default=None,
        help="comma-separated subset of designs for the fresh run "
        "(param-incompatible sections are skipped)",
    )
    check.add_argument(
        "--warn-tolerance",
        type=float,
        default=DEFAULT_WARN_TOLERANCE,
        metavar="FRAC",
        help="timing regression fraction that warns "
        f"(default {DEFAULT_WARN_TOLERANCE:g})",
    )
    check.add_argument(
        "--fail-tolerance",
        "--tolerance",
        type=float,
        default=DEFAULT_FAIL_TOLERANCE,
        metavar="FRAC",
        help="timing regression fraction that fails "
        f"(default {DEFAULT_FAIL_TOLERANCE:g})",
    )
    check.add_argument(
        "--warn-only",
        action="store_true",
        help="report failures but exit 0 (CI advisory mode)",
    )
    check.set_defaults(fn=_cmd_bench_check)

    att = sub.add_parser(
        "attrib",
        help="overhead attribution: which component makes G(k) grow",
    )
    att.add_argument(
        "source",
        nargs="?",
        default=None,
        help="a study manifest JSON or a telemetry run directory "
        "(default: <cache-dir>/manifests/{study,faults}.json, then telemetry/)",
    )
    _add_profile_arg(att)
    att.add_argument(
        "--cache-dir",
        default=None,
        help="cache root holding manifests/study.json "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    att.add_argument("--top", type=int, default=10,
                     help="finest-grained contributors shown per series")
    att.add_argument("--rms", default=None, help="filter by RMS design")
    att.set_defaults(fn=_cmd_attrib)

    cmp_ = sub.add_parser(
        "compare",
        help="quick 7-design comparison run",
        parents=[
            study,
            engine,
            fault_plan_parent("JSON FaultPlan applied to every design's run"),
        ],
    )
    _add_profile_arg(cmp_)
    cmp_.set_defaults(fn=_cmd_compare)

    tel = sub.add_parser(
        "telemetry", help="render reports from recorded telemetry"
    )
    tel_sub = tel.add_subparsers(dest="view", required=True)
    views = {
        "summary": "per-span totals, cache hit rate, sim event throughput",
        "spans": "the individual slowest spans",
        "tuner": "the annealing convergence trace per (RMS, scale)",
    }
    for view, help_text in views.items():
        v = tel_sub.add_parser(view, help=help_text)
        _add_profile_arg(v)
        v.add_argument(
            "dir",
            nargs="?",
            default=DEFAULT_TELEMETRY_DIR,
            help="a run directory, or a root whose newest run is used "
            f"(default: {DEFAULT_TELEMETRY_DIR}/)",
        )
        if view == "spans":
            v.add_argument("--top", type=int, default=20, help="spans shown")
            v.add_argument("--name", default=None, help="filter by span name")
        if view == "tuner":
            v.add_argument("--rms", default=None, help="filter by RMS design")
            v.add_argument("--scale", type=float, default=None, help="filter by k")
        v.set_defaults(fn=_cmd_telemetry, view=view)
    return p


_logging_configured = False


def _configure_logging(level: Optional[str]) -> None:
    """Wire ``logging.basicConfig`` exactly once per process.

    Precedence: ``--log-level`` > ``$REPRO_LOG_LEVEL`` > ``warning``.
    """
    global _logging_configured
    if _logging_configured:
        return
    name = get_str("REPRO_LOG_LEVEL", override=level, default="warning").upper()
    logging.basicConfig(
        level=getattr(logging, name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    _logging_configured = True


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # the flight recorder (when on) has already bundled the window;
        # exit with the conventional SIGINT status
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (`repro telemetry summary | head`); exit
        # quietly like any unix filter instead of tracebacking.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
