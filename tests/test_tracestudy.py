"""Integration tests for the causal-tracing study (``repro trace``).

Covers the run cache's trace-payload upgrade path, the study driver (one
engine batch, manifest checkpointing in the shared study shape, the
telescoping invariant across every point), the report's grep-able
verdict lines, the CSV/JSONL/Prometheus exports, and the CLI plumbing
including the exit-2 error convention for bad plan knobs.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.experiments import SimulationConfig
from repro.experiments.parallel import ExperimentEngine, metrics_json_bytes
from repro.experiments.parallel.cache import RunCache
from repro.experiments.planstudy import export_jsonl, plan_digest, run_plan_study
from repro.experiments.tracestudy import (
    RESIDUAL_TOLERANCE,
    default_trace_plan,
    export_csv,
    export_prometheus,
    trace_report,
)
from repro.telemetry.tracing import ENV_SAMPLE, TracePlan


def small_config(rms="LOWEST", **kw):
    """A small but non-trivial system (~10 ms per run)."""
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    kw.setdefault("horizon", 2000.0)
    kw.setdefault("drain", 3000.0)
    kw.setdefault("update_interval", 20.0)
    kw.setdefault("seed", 11)
    return SimulationConfig(rms=rms, **kw)


PASSIVE = TracePlan(sample=1.0, charge_rate=0.0)


class TestDefaultPlan:
    def test_study_default_traces_everything_and_charges(self, monkeypatch):
        monkeypatch.delenv(ENV_SAMPLE, raising=False)
        plan = default_trace_plan()
        assert plan.sample == 1.0
        assert plan.is_active  # overhead charged to g.trace by default

    def test_plan_key_is_a_stable_digest(self):
        plan = TracePlan(sample=0.5, charge_rate=0.01)
        key = plan_digest("trace", plan)
        assert key == plan_digest("trace", TracePlan(sample=0.5, charge_rate=0.01))
        assert len(key) == 12 and int(key, 16) >= 0
        assert key != plan_digest("trace", PASSIVE)


class TestTraceAwareCache:
    """``RunCache`` serves a traced config only an entry with its trace."""

    def test_trace_less_hit_reads_as_miss_and_upgrades(self, tmp_path):
        base = small_config()
        with ExperimentEngine(jobs=1, cache=RunCache(tmp_path)) as engine:
            engine.run(base)  # cache an untraced (trace-less) entry

        cache = RunCache(tmp_path)
        traced = replace(base, trace=PASSIVE)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            m = engine.run(traced)
        assert m.trace is not None
        assert cache.misses >= 1

        # the rewritten entry now carries the payload: second read hits
        cache2 = RunCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache2) as engine:
            again = engine.run(traced)
        assert again.trace is not None
        assert cache2.hits >= 1
        assert metrics_json_bytes(again) == metrics_json_bytes(m)

    def test_plain_configs_unaffected(self, tmp_path):
        base = small_config()
        cache = RunCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            engine.run(base)
        cache2 = RunCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache2) as engine:
            engine.run(base)
        assert cache2.hits == 1


class TestStudyDriver:
    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trace-study")
        manifest = root / "manifests" / "trace.json"
        plan = TracePlan(sample=1.0, charge_rate=0.01)
        with ExperimentEngine(jobs=1, cache=RunCache(root)) as engine:
            result = run_plan_study(
                "trace",
                plan,
                profile="ci",
                rms=["LOWEST", "CENTRAL"],
                engine=engine,
                manifest_path=manifest,
            )
        return result

    def test_points_carry_traces_and_decompose(self, study):
        for name, points in study.points.items():
            assert len(points) >= 2
            for p in points:
                assert p.trace is not None and p.trace["sampled"] > 0
                agg = p.phases
                assert agg["jobs"] > 0
                assert agg["max_residual"] <= RESIDUAL_TOLERANCE
                assert math.fsum(p.shares.values()) == pytest.approx(1.0)
                assert p.g("trace") > 0.0  # the active plan charged g.trace

    def test_report_carries_the_verdict_lines(self, study):
        text = trace_report(study)
        assert "phase decomposition sums to turnaround: yes" in text
        assert "share growth with k (top 3):" in text
        assert "transit latency by message class" in text
        assert "g.trace" in text
        assert "LOWEST — phase shares of turnaround per scale:" in text

    def test_manifest_round_trips_through_attrib(self, study):
        from repro.experiments.attrib import check_conservation, points_from_manifest

        points = points_from_manifest(study.manifest_path)
        assert len(points) == sum(len(v) for v in study.points.values())
        for p in points:
            assert check_conservation(p) == []

    def test_manifest_points_carry_phase_payloads(self, study):
        payload = json.loads(study.manifest_path.read_text())
        entry = next(iter(payload["completed"].values()))
        point = entry["result"]["points"][0]
        assert "phases" in point and "shares" in point
        assert entry["trace_plan"]["sample"] == 1.0

    def test_csv_export(self, study, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            n = export_csv(study, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "rms,scale,jobs,incomplete,phase,seconds,share"
        assert n == len(lines) - 1 > 0

    def test_jsonl_export_carries_full_payloads(self, study, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            n = export_jsonl(study, fh)
        lines = path.read_text().splitlines()
        assert n == len(lines) == sum(len(v) for v in study.points.values())
        row = json.loads(lines[0])
        assert row["trace"]["sampled"] > 0
        assert set(row["record"]) == {"F", "G", "H"}

    def test_prometheus_export(self, study, tmp_path):
        path = tmp_path / "t.prom"
        with open(path, "w") as fh:
            n = export_prometheus(study, fh)
        text = path.read_text()
        assert n > 0
        assert "# TYPE repro_trace_phase_share gauge" in text
        assert 'phase="service"' in text
        # g.trace overhead rides with its attribution labels
        assert 'category="g.trace"' in text
        assert 'quantile="p95"' in text


class TestCli:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "trace",
                "--profile", "ci",
                "--rms", "CENTRAL",
                "--jobs", "1",
                "--cache-dir", str(tmp_path),
                "--trace-charge", "0.01",
                "--csv", str(tmp_path / "t.csv"),
                "--jsonl", str(tmp_path / "t.jsonl"),
                "--prom", str(tmp_path / "t.prom"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase decomposition sums to turnaround: yes" in out
        assert "g.trace" in out
        assert (tmp_path / "manifests" / "trace.json").is_file()
        csv_text = (tmp_path / "t.csv").read_text()
        assert csv_text.startswith("rms,scale,jobs,incomplete,phase")
        assert "repro_trace_phase_share" in (tmp_path / "t.prom").read_text()
        assert (tmp_path / "t.jsonl").read_text().count("\n") > 0

    def test_trace_rejects_bad_sample(self, tmp_path, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "trace",
                "--cache-dir", str(tmp_path),
                "--trace-sample", "1.5",
            ]
        )
        assert rc == 2
        assert "sample" in capsys.readouterr().err
