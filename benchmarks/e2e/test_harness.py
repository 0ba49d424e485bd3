"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
from layertrace import LAYERS, Tracer
from run import hermetic_env

CONTRACT = json.loads((harness.ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RUN = [sys.executable, "benchmarks/e2e/run.py"]


@pytest.fixture(scope="module")
def probe():
    sys.path.insert(0, str(harness.SRC))
    probe = harness.BuildProbe()
    yield probe
    probe.close()


def _ci(observed=False, plans=None, rms=("LOWEST", "S-I")):
    """A workload of small ci-profile simulations."""
    if observed and plans is None:
        plans = harness.observed_plans
    return harness.SimWorkload("ci", "ci", 1, rms=rms, plans=plans, observed=observed)


def test_benchmark_json_follows_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    for path in CONTRACT["paths"]:
        assert (harness.ROOT / path).is_dir() and ".." not in path and not path.startswith("/")
    assert all(not arg.startswith("/") and ".." not in arg for arg in CONTRACT["command"])

    workloads = CONTRACT["workloads"]
    assert 2 <= len(workloads) <= 8
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
               for w in workloads)
    assert [w["name"] for w in workloads] == list(harness.WORKLOADS)

    e2e, layers = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 <= metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"} and metric["better"] in ("lower", "higher")
    names = [m["name"] for m in workloads + e2e + layers]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in e2e + layers)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_layer_metric_names_its_module_target_and_workloads():
    per_layer = {m["name"]: m for m in CONTRACT["per_layer"]}
    assert set(per_layer) == set(LAYERS)
    targets = {m["name"] for m in CONTRACT["end_to_end"]}
    for name, (unit, better, module, target, where) in LAYERS.items():
        assert (per_layer[name]["unit"], per_layer[name]["better"]) == (unit, better), name
        assert module and target in targets, name
        assert where and set(where) <= set(harness.WORKLOADS), name


PARENT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7]


def _by_seed(values):
    return dict(enumerate(values))


@pytest.mark.parametrize("change, better, verdict", [
    ([v * 0.8 for v in PARENT], "lower", "improved"),
    ([v * 1.2 for v in PARENT], "lower", "regressed"),
    ([v * 1.01 for v in PARENT], "lower", "no-regression"),
    ([v * 1.2 for v in PARENT], "higher", "improved"),
    ([v * 0.8 for v in PARENT], "higher", "regressed"),
])
def test_compare_verdicts(change, better, verdict):
    assert compare.judge(_by_seed(PARENT), _by_seed(change), better, 0.1).verdict == verdict


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [70.0, 130.0, 100.0, 85.0, 115.0, 90.0, 110.0, 95.0, 105.0, 125.0]
    assert compare.judge(_by_seed(noisy), _by_seed(noisy), "lower", 0.1).verdict == "unresolved"
    # unless every change run beats every parent run
    faster = [v - 80.0 for v in noisy]
    assert compare.judge(_by_seed(noisy), _by_seed(faster), "lower", 0.1).verdict == "improved"


def test_digest_is_stable_and_observed_equals_discrete(probe):
    first = harness.run_pass(_ci(), 7, 0, probe)
    again = harness.run_pass(_ci(), 7, 0, probe)
    observed = harness.run_pass(_ci(observed=True), 7, 0, probe)
    other_seed = harness.run_pass(_ci(), 8, 0, probe)
    assert not [op.error for p in (first, again, observed) for op in p.ops if op.error]
    digests = [op.digest for op in first.ops]
    assert digests == [op.digest for op in again.ops] == [op.digest for op in observed.ops]
    assert digests != [op.digest for op in other_seed.ops]
    assert first.msgs > 0


def test_observed_run_that_perturbs_results_fails(probe):
    from repro.telemetry.timeseries import MonitorPlan
    from repro.telemetry.tracing import TracePlan

    def charging():
        return {"monitor": MonitorPlan(series=True, probe_interval=100.0, charge_rate=0.5),
                "trace": TracePlan(sample=1.0, charge_rate=0.0)}

    result = harness.run_pass(_ci(observed=True, plans=charging, rms=("LOWEST",)), 7, 0, probe)
    assert "discrete twin" in result.ops[0].error


def test_tracer_reports_every_layer_metric(probe):
    workload = _ci()
    untraced = harness.run_pass(workload, 7, 0, probe)
    tracer = Tracer("ci")
    tracer.install()
    try:
        tracer.begin_rep(0)
        traced = harness.run_pass(workload, 7, 0, probe, tracer)
        tracer.end_rep(traced)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(untraced.wall)
    assert list(metrics) == list(LAYERS)
    assert metrics["sim.events"][0] > 0 and metrics["ledger.charge_calls"][0] > 0
    assert metrics["trace.coverage_frac"][0] > 0.95
    assert [op.digest for op in traced.ops] == [op.digest for op in untraced.ops]


def test_expected_digests_cover_every_workload():
    expected = harness.load_expected()
    for name, workload in harness.WORKLOADS.items():
        for seed in harness.EXPECTED_SEEDS:
            assert len(expected[name][str(seed)]) == len(workload.inputs(seed, 0))
    assert expected["observed-full"] == expected["discrete-full"]


def test_hermetic_env_scrubs_knobs():
    env = hermetic_env({"REPRO_JOBS": "8", "REPRO_KERNEL_BACKEND": "fast",
                        "REPRO_TRAFFIC_MODE": "fluid", "REPRO_SERIES": "1",
                        "REPRO_TRACE_SAMPLE": "1", "PATH": "/bin", "PYTHONHASHSEED": "5"})
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin" and env["PYTHONHASHSEED"] == "0"
    assert Path(env["TMPDIR"]).is_relative_to(harness.BENCH_DIR)


def test_ambient_knobs_do_not_reach_a_run():
    # an unknown kernel backend would fail every simulation
    env = dict(os.environ, REPRO_KERNEL_BACKEND="no-such-kernel", REPRO_TRAFFIC_MODE="fluid")
    proc = subprocess.run(RUN + ["--workload", "discrete-full", "--seed", "7", "--seconds", "0.1",
                                 "--trace", "0"],
                          cwd=harness.ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(RUN + ["--workload", "discrete-full", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
