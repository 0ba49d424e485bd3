"""Per-layer tracing of the end-to-end benchmark (``--trace 1``).

The tracer wraps public module attributes and class methods of the
program from outside, so no program file changes.  Each wrapped call
records a span (id, name, start, end, parent, run, tag) kept in memory
and written out when the run ends; the two per-message hot paths
(ledger charges and status-table records) only count calls.  A layer's
self time is its spans' duration minus the part their child spans
cover.  The layer metrics below are what ``--trace 1`` reports; each
names the module it measures, the end-to-end metric it should move and
the workloads where it matters.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from harness import STUDY_JOBS, WORK_DIR

SIMS = ("discrete-full", "observed-full")
DISCRETE = ("discrete-full",)
OBSERVED = ("observed-full",)
STUDY = ("study-fig2",)
ALL = STUDY + SIMS
WALL, CPU, SETUP, RSS = "wall_us_per_msg", "cpu_us_per_msg", "setup_s", "peak_rss_mb"
PARALLEL = "repro.experiments.parallel."
RUNNER = "repro.experiments.runner"

#: name -> (unit, better, module, end-to-end metric it moves, workloads)
LAYERS: Dict[str, Tuple[str, str, str, str, Tuple[str, ...]]] = {
    "topology.generate_s": ("s", "lower", "repro.topology.generator", SETUP, SIMS),
    "topology.map_grid_s": ("s", "lower", "repro.topology.grid_map", SETUP, SIMS),
    "topology.single_source_calls": ("count", "lower", "repro.topology.paths", WALL, DISCRETE),
    "topology.single_source_s": ("s", "lower", "repro.topology.paths", WALL, DISCRETE),
    "network.router_cached_sources": ("count", "lower", "repro.network.routing", RSS, DISCRETE),
    "network.messages_sent": ("count", "lower", "repro.network.transport", WALL, DISCRETE),
    "runner.build_s": ("s", "lower", RUNNER, SETUP, SIMS),
    "runner.wiring_s": ("s", "lower", RUNNER, SETUP, SIMS),
    "runner.summarize_s": ("s", "lower", RUNNER, WALL, SIMS),
    "runner.drain_s": ("s", "lower", RUNNER, WALL, SIMS),
    "sim.run_s": ("s", "lower", "repro.sim.kernel", WALL, SIMS + STUDY),
    "sim.events": ("count", "lower", "repro.sim.kernel", WALL, SIMS),
    "sim.events_per_s": ("1/s", "higher", "repro.sim.kernel", WALL, SIMS),
    "grid.status_record_calls": ("count", "lower", "repro.grid.status", WALL, DISCRETE),
    "ledger.charge_calls": ("count", "lower", "repro.core.ledger", WALL, DISCRETE),
    "ledger.cells": ("count", "lower", "repro.core.ledger", WALL, DISCRETE),
    "telemetry.trace_jobs": ("count", "lower", "repro.telemetry.tracing", WALL, OBSERVED),
    "telemetry.series_windows": ("count", "lower", "repro.telemetry.timeseries", WALL, OBSERVED),
    "telemetry.probe_sweeps": ("count", "lower", "repro.telemetry.timeseries", WALL, OBSERVED),
    "telemetry.hook_overhead_frac": ("ratio", "lower", "repro.telemetry", WALL, OBSERVED),
    "engine.batches": ("count", "lower", PARALLEL + "engine", WALL, STUDY),
    "engine.runs_requested": ("count", "lower", PARALLEL + "engine", WALL, STUDY),
    "engine.runs_executed": ("count", "lower", PARALLEL + "engine", WALL, STUDY),
    "engine.mean_batch": ("count", "higher", PARALLEL + "engine", WALL, STUDY),
    "engine.batch_s": ("s", "lower", PARALLEL + "engine", WALL, STUDY),
    "engine.busy_s": ("s", "lower", PARALLEL + "engine", CPU, STUDY),
    "engine.utilization": ("ratio", "higher", PARALLEL + "engine", WALL, STUDY),
    "engine.config_key_calls": ("count", "lower", PARALLEL + "hashing", WALL, STUDY),
    "engine.config_key_s": ("s", "lower", PARALLEL + "hashing", WALL, STUDY),
    "cache.get_calls": ("count", "lower", PARALLEL + "cache", WALL, STUDY),
    "cache.get_s": ("s", "lower", PARALLEL + "cache", WALL, STUDY),
    "cache.put_calls": ("count", "lower", PARALLEL + "cache", WALL, STUDY),
    "cache.put_s": ("s", "lower", PARALLEL + "cache", WALL, STUDY),
    "cache.bytes": ("B", "lower", PARALLEL + "cache", WALL, STUDY),
    "manifest.save_calls": ("count", "lower", PARALLEL + "manifest", WALL, STUDY),
    "manifest.save_s": ("s", "lower", PARALLEL + "manifest", WALL, STUDY),
    "tuner.self_s": ("s", "lower", "repro.core.tuner", WALL, STUDY),
    "trace.wall_s": ("s", "lower", "benchmarks.e2e", WALL, ALL),
    "trace.overhead_s": ("s", "lower", "benchmarks.e2e", WALL, ALL),
    "trace.coverage_frac": ("ratio", "higher", "benchmarks.e2e", WALL, ALL),
}


class Tracer:
    """Spans and call counts of one traced run.

    ``run`` is the index of the traced repetition; ``tag`` separates an
    observed-full operation's discrete twin (``twin``) from the run
    being measured (``main``).  Nothing is recorded while
    ``recording`` is false.
    """

    def __init__(self, workload: str, engine_telemetry: bool = False) -> None:
        self.workload = workload
        #: activate a telemetry session per repetition so the engine
        #: reports worker-side busy time (study workloads only: it would
        #: also log every traced job of observed-full to disk)
        self.engine_telemetry = engine_telemetry
        self.recording = False
        self.run = -1
        self.spans: List[tuple] = []
        self.counts: Dict[Tuple[int, str], Dict[str, int]] = {}
        self.bucket: Dict[str, int] = {}
        self.reps: List[Dict] = []
        self._tag = "main"
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []
        self._session = None
        self._exit = contextlib.ExitStack()

    # -- tags and counters ---------------------------------------------
    @property
    def tag(self) -> str:
        return self._tag

    @tag.setter
    def tag(self, value: str) -> None:
        self._tag = value
        self.bucket = self.counts.setdefault((self.run, value), {}) if self.recording else {}

    def _bump(self, counter: str, by: int = 1) -> None:
        if self.recording:
            self.bucket[counter] = self.bucket.get(counter, 0) + by

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.run, tracer._tag))

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr: str, counter: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bucket = tracer.bucket
            bucket[counter] = bucket.get(counter, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer boundary (undone by :meth:`uninstall`)."""
        import repro.api as api
        from repro.core.ledger import CostLedger
        from repro.experiments import runner
        from repro.experiments.parallel import ExperimentEngine, RunCache, StudyManifest
        from repro.experiments.parallel import engine as engine_module
        from repro.grid.status import StatusTable
        from repro.network import routing
        from repro.sim.fastkernel import FastSimulator
        from repro.sim.kernel import Simulator
        from repro.topology import paths

        self._timed(runner, "run_simulation", "runner.run")
        self._timed(engine_module, "run_simulation", "runner.run")
        self._timed(runner, "build_system", "runner.build")
        self._timed(runner, "generate_topology", "topology.generate")
        self._timed(runner, "map_grid", "topology.map_grid")
        self._timed(paths, "single_source", "topology.single_source")
        self._timed(routing, "single_source", "topology.single_source")
        self._timed(runner, "summarize", "runner.summarize")
        for kernel in (Simulator, FastSimulator):
            self._timed(kernel, "run", "sim.run")
        self._counted(StatusTable, "record", "grid.status_record_calls")
        self._counted(CostLedger, "charge", "ledger.charge_calls")
        self._timed(api, "run_study", "api.run_study")
        self._timed(engine_module, "config_key", "engine.config_key")
        self._timed(RunCache, "get", "cache.get")
        self._timed(RunCache, "put", "cache.put")
        self._timed(StudyManifest, "save", "manifest.save")
        self._timed(ExperimentEngine, "run_many", "engine.batch")
        batch = ExperimentEngine.run_many
        tracer = self

        @functools.wraps(batch)
        def run_many(engine, configs):
            configs = list(configs)
            before = engine.runs_executed
            try:
                return batch(engine, configs)
            finally:
                tracer._bump("engine.runs_requested", len(configs))
                tracer._bump("engine.runs_executed", engine.runs_executed - before)

        self._patch(ExperimentEngine, "run_many", run_many)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- repetitions -------------------------------------------------------
    def begin_rep(self, index: int) -> None:
        self.run = index
        self.reps.append({"sims": [], "cache_bytes": 0, "busy": 0.0})
        if self.engine_telemetry:
            from repro.telemetry.spans import Telemetry, activate

            self._session = Telemetry(WORK_DIR / f"telemetry-{index}")
            self._exit.enter_context(activate(self._session))
        self.recording = True
        self.tag = "main"

    def end_rep(self, result) -> None:
        self.recording = False
        rep = self.reps[-1]
        rep["wall"] = result.wall
        if self._session is not None:
            self._exit.close()
            rep["busy"] = self._session.metrics.histogram("engine.run_seconds").total
            self._session.close()
            shutil.rmtree(self._session.directory, ignore_errors=True)
            self._session = None
        self.bucket = {}

    def observe_sim(self, metrics, system) -> None:
        """Counters of one finished simulation (read after the run)."""
        if not self.recording:
            return
        series = metrics.series or {}
        self.reps[-1]["sims"].append({
            "tag": self._tag,
            "events": system.sim.events_executed,
            "cached_sources": system.network.router.cached_sources,
            "messages_sent": metrics.messages_sent,
            "cells": len(metrics.attribution or {}),
            "trace_jobs": len((metrics.trace or {}).get("jobs", {})),
            "series_windows": series.get("windows", 0),
            "probe_sweeps": series.get("sweeps", 0),
        })

    def observe_study(self, cache_bytes: int) -> None:
        if self.recording:
            self.reps[-1]["cache_bytes"] += cache_bytes

    # -- results -----------------------------------------------------------
    def _rep_metrics(self, index: int, rep: Dict, untraced_wall: float) -> Dict[str, float]:
        spans = [s for s in self.spans if s[5] == index]
        covered: Dict[int, float] = defaultdict(float)
        for sid, _, t0, t1, parent, _, _ in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        incl: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        twin_run = 0.0
        for sid, name, t0, t1, _, _, tag in spans:
            if tag == "twin":
                twin_run += (t1 - t0) if name == "sim.run" else 0.0
                continue
            incl[name] += t1 - t0
            own[name] += t1 - t0 - covered[sid]
            calls[name] += 1
        counts = self.counts.get((index, "main"), {})
        sims = [s for s in rep["sims"] if s["tag"] == "main"]

        def total(key: str) -> int:
            return sum(s[key] for s in sims)

        run_s = incl["sim.run"]
        batches = calls["engine.batch"]
        batch_s = incl["engine.batch"]
        wall = rep["wall"]
        return {
            "topology.generate_s": incl["topology.generate"],
            "topology.map_grid_s": own["topology.map_grid"],
            "topology.single_source_calls": calls["topology.single_source"],
            "topology.single_source_s": incl["topology.single_source"],
            "network.router_cached_sources": total("cached_sources"),
            "network.messages_sent": total("messages_sent"),
            "runner.build_s": incl["runner.build"],
            "runner.wiring_s": own["runner.build"],
            "runner.summarize_s": incl["runner.summarize"],
            "runner.drain_s": own["runner.run"],
            "sim.run_s": run_s,
            "sim.events": total("events"),
            "sim.events_per_s": total("events") / run_s if run_s else 0.0,
            "grid.status_record_calls": counts.get("grid.status_record_calls", 0),
            "ledger.charge_calls": counts.get("ledger.charge_calls", 0),
            "ledger.cells": total("cells"),
            "telemetry.trace_jobs": total("trace_jobs"),
            "telemetry.series_windows": total("series_windows"),
            "telemetry.probe_sweeps": total("probe_sweeps"),
            "telemetry.hook_overhead_frac": run_s / twin_run - 1.0 if twin_run else 0.0,
            "engine.batches": batches,
            "engine.runs_requested": counts.get("engine.runs_requested", 0),
            "engine.runs_executed": counts.get("engine.runs_executed", 0),
            "engine.mean_batch": (
                counts.get("engine.runs_requested", 0) / batches if batches else 0.0
            ),
            "engine.batch_s": batch_s,
            "engine.busy_s": rep["busy"],
            "engine.utilization": rep["busy"] / (STUDY_JOBS * batch_s) if batch_s else 0.0,
            "engine.config_key_calls": calls["engine.config_key"],
            "engine.config_key_s": incl["engine.config_key"],
            "cache.get_calls": calls["cache.get"],
            "cache.get_s": incl["cache.get"],
            "cache.put_calls": calls["cache.put"],
            "cache.put_s": incl["cache.put"],
            "cache.bytes": rep["cache_bytes"],
            "manifest.save_calls": calls["manifest.save"],
            "manifest.save_s": incl["manifest.save"],
            "tuner.self_s": incl["api.run_study"] - batch_s - incl["manifest.save"],
            "trace.wall_s": wall,
            "trace.overhead_s": wall - untraced_wall,
            # a tripwire: the wrapped layers must still see the calls the
            # harness times; a renamed entry point drops this toward 0
            "trace.coverage_frac": sum(own.values()) / wall if wall else 0.0,
        }

    def layer_metrics(self, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
        """Every layer metric: the median over traced repetitions."""
        per_rep = [self._rep_metrics(i, rep, untraced_wall) for i, rep in enumerate(self.reps)]
        return {
            name: (statistics.median(r[name] for r in per_rep), LAYERS[name][0])
            for name in LAYERS
        }

    def write_spans(self, path: Path) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, run, tag in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0 - origin, "end": t1 - origin,
                    "parent": parent, "workload": self.workload, "run": run, "tag": tag,
                }) + "\n")
