"""Integration tests for the time-resolved observatory.

The load-bearing contract is **byte-identity**: a passive monitor plan
(streams on, probes at zero charge rate) must leave every F/G/H result,
attribution cell, and cache key bit-for-bit identical to an unmonitored
run — across worker counts.  On top of that:
the stream must *agree* with the ledger (series F/G/H sums reproduce
the end-of-run totals), steady-state detection must land within the
acceptance tolerance, charged probes must show monotone ``g.monitor``
growth with probe frequency while F stays conserved, and the study
driver / manifest / watch / CLI plumbing must round-trip it all.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel import ExperimentEngine, metrics_json_bytes
from repro.experiments.parallel.cache import RunCache, metrics_to_jsonable
from repro.experiments.parallel.hashing import config_key
from repro.experiments.seriesstudy import (
    SeriesAwareCache,
    run_series_study,
    series_report,
    sweep_report,
)
from repro.telemetry.timeseries import MonitorPlan, steady_state


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


PASSIVE = MonitorPlan(series=True, probe_interval=40.0)
ACTIVE = MonitorPlan(series=True, probe_interval=40.0, charge_rate=0.05)


def stripped_bytes(metrics) -> bytes:
    """Canonical metrics bytes with the series payload removed."""
    payload = metrics_to_jsonable(metrics)
    payload.pop("series", None)
    return json.dumps(payload, sort_keys=True).encode()


class TestByteIdentity:
    """Satellite: passive monitoring changes nothing, anywhere."""

    @pytest.mark.parametrize("rms", ["LOWEST", "CENTRAL", "S-I"])
    def test_passive_plan_leaves_results_bit_identical(self, rms):
        plain = run_simulation(small_config(rms))
        monitored = run_simulation(
            replace(small_config(rms), monitor=PASSIVE)
        )
        assert monitored.series is not None
        assert stripped_bytes(monitored) == stripped_bytes(plain)
        assert monitored.record.F == plain.record.F
        assert monitored.attribution == plain.attribution

    def test_passive_plan_shares_the_cache_key(self):
        base = small_config()
        assert config_key(replace(base, monitor=PASSIVE)) == config_key(base)
        assert config_key(
            replace(base, monitor=MonitorPlan(series=True))
        ) == config_key(base)

    def test_active_plan_changes_the_cache_key(self):
        base = small_config()
        assert config_key(replace(base, monitor=ACTIVE)) != config_key(base)

    def test_results_identical_across_worker_counts(self):
        configs = [
            replace(small_config(rms), monitor=PASSIVE)
            for rms in ("LOWEST", "CENTRAL")
        ]
        with ExperimentEngine(jobs=1) as serial, ExperimentEngine(jobs=4) as pool:
            a = serial.run_many(configs)
            b = pool.run_many(configs)
        for x, y in zip(a, b):
            assert metrics_json_bytes(x) == metrics_json_bytes(y)

    def test_unmonitored_metrics_carry_no_series_key(self):
        # the jsonable shape of unmonitored runs is unchanged from seed
        payload = metrics_to_jsonable(run_simulation(small_config()))
        assert "series" not in payload


class TestStreamAgreesWithLedger:
    def test_series_sums_reproduce_fgh_totals(self):
        m = run_simulation(replace(small_config(), monitor=PASSIVE))
        sums = m.series["sums"]
        for key, total in (("F", m.record.F), ("G", m.record.G), ("H", m.record.H)):
            assert math.fsum(sums.get(key, ())) == pytest.approx(
                total, rel=1e-9, abs=1e-9
            )

    def test_component_detail_sums_to_g(self):
        m = run_simulation(replace(small_config(), monitor=PASSIVE))
        comp_total = math.fsum(
            math.fsum(arr)
            for key, arr in m.series["sums"].items()
            if key.startswith("g:")
        )
        assert comp_total == pytest.approx(m.record.G, rel=1e-9)

    def test_probe_gauges_recorded(self):
        m = run_simulation(replace(small_config(), monitor=PASSIVE))
        samples = m.series["samples"]
        assert "probe:sched_queue" in samples
        assert "probe:running" in samples
        assert sum(samples["probe:running"]["count"]) > 0

    def test_steady_state_close_to_final(self):
        m = run_simulation(replace(small_config(), monitor=PASSIVE))
        s = steady_state(m.series)
        assert s["rel_error"] < 0.02  # the acceptance tolerance

    def test_charged_probes_show_up_in_g_monitor(self):
        m = run_simulation(replace(small_config(), monitor=ACTIVE))
        monitor_g = math.fsum(
            v for k, v in m.attribution.items() if k.startswith("g.monitor")
        )
        assert monitor_g > 0.0
        # per-sweep charge = rate x probed entities; sweeps at fixed period
        plain = run_simulation(small_config())
        assert m.record.G == pytest.approx(plain.record.G + monitor_g)
        assert m.record.F == plain.record.F  # charges never touch behaviour


class TestSweepMonotonicity:
    def test_g_monitor_monotone_and_f_conserved(self):
        base = small_config()
        runs = {
            interval: run_simulation(
                replace(
                    base,
                    monitor=MonitorPlan(
                        series=True, probe_interval=interval, charge_rate=0.05
                    ),
                )
            )
            for interval in (25.0, 50.0, 100.0)
        }
        monitor_g = {
            i: math.fsum(
                v for k, v in m.attribution.items() if k.startswith("g.monitor")
            )
            for i, m in runs.items()
        }
        assert monitor_g[25.0] > monitor_g[50.0] > monitor_g[100.0] > 0.0
        f_values = {m.record.F for m in runs.values()}
        assert len(f_values) == 1  # bit-for-bit conserved


class TestSeriesAwareCache:
    def test_series_less_hit_reads_as_miss_and_upgrades(self, tmp_path):
        base = small_config()
        with ExperimentEngine(jobs=1, cache=RunCache(tmp_path)) as engine:
            engine.run(base)  # cache an unmonitored (series-less) entry

        cache = SeriesAwareCache(tmp_path)
        monitored = replace(base, monitor=PASSIVE)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            m = engine.run(monitored)
        assert m.series is not None
        assert cache.misses >= 1

        # the rewritten entry now carries the stream: second read hits
        cache2 = SeriesAwareCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache2) as engine:
            again = engine.run(monitored)
        assert again.series is not None
        assert cache2.hits >= 1
        assert metrics_json_bytes(again) == metrics_json_bytes(m)

    def test_plain_configs_unaffected(self, tmp_path):
        base = small_config()
        cache = SeriesAwareCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            engine.run(base)
        cache2 = SeriesAwareCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache2) as engine:
            engine.run(base)
        assert cache2.hits == 1


class TestStudyDriver:
    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("series-study")
        manifest = root / "manifests" / "series.json"
        plan = MonitorPlan(series=True, probe_interval=60.0, charge_rate=0.01)
        with ExperimentEngine(jobs=1, cache=SeriesAwareCache(root)) as engine:
            result = run_series_study(
                profile="ci",
                rms=["LOWEST", "CENTRAL"],
                plan=plan,
                sweep_intervals=[120.0],
                engine=engine,
                manifest_path=manifest,
            )
        return result

    def test_points_carry_series_and_steady(self, study):
        for name, points in study.series.items():
            assert len(points) >= 2
            for p in points:
                assert p.series is not None
                assert p.steady["rel_error"] < 0.02

    def test_sweep_includes_base_interval(self, study):
        assert set(study.sweep) == {60.0, 120.0}

    def test_manifest_round_trips_through_attrib(self, study):
        from repro.experiments.attrib import check_conservation, points_from_manifest

        points = points_from_manifest(study.manifest_path)
        assert len(points) == sum(len(v) for v in study.series.values())
        for p in points:
            assert check_conservation(p) == []

    def test_manifest_points_carry_series_payloads(self, study):
        payload = json.loads(study.manifest_path.read_text())
        entry = next(iter(payload["completed"].values()))
        point = entry["result"]["points"][0]
        assert "series" in point and "steady" in point
        assert entry["monitor"]["probe_interval"] == 60.0

    def test_reports_render(self, study):
        text = series_report(study)
        assert "steady-state" in text
        assert "within 2%" in text or "EXCEEDS" in text
        sweep = sweep_report(study)
        assert "F conserved across sweep: yes" in sweep
        assert "G:monitor monotone in probe frequency: yes" in sweep

    def test_watch_renders_the_manifest(self, study):
        from repro.experiments.watch import render_snapshot, resolve_manifest, watch

        path = resolve_manifest(study.manifest_path.parent)
        assert path == study.manifest_path
        snap = render_snapshot(path)
        assert "completed point(s)" in snap
        assert "steady E" in snap
        import io

        buf = io.StringIO()
        assert watch(path, once=True, out=buf) == 1
        assert "completed point(s)" in buf.getvalue()

    def test_watch_missing_manifest_waits(self, tmp_path):
        from repro.experiments.watch import render_snapshot

        snap = render_snapshot(tmp_path / "nope.json")
        assert "waiting" in snap


class TestCli:
    def test_series_and_watch_subcommands(self, tmp_path, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "series",
                "--profile", "ci",
                "--rms", "CENTRAL",
                "--jobs", "1",
                "--cache-dir", str(tmp_path),
                "--probe-interval", "60",
                "--csv", str(tmp_path / "s.csv"),
                "--prom", str(tmp_path / "s.prom"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady-state" in out
        assert (tmp_path / "manifests" / "series.json").is_file()
        csv_text = (tmp_path / "s.csv").read_text()
        assert csv_text.startswith("rms,scale,t,width,F,G,H")
        assert "repro_steady_efficiency" in (tmp_path / "s.prom").read_text()

        rc = main(["watch", "--once", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed point(s)" in out

    def test_series_rejects_bad_interval_list(self, tmp_path, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "series",
                "--cache-dir", str(tmp_path),
                "--probe-interval", "60,abc",
            ]
        )
        assert rc == 2
        assert "--probe-interval" in capsys.readouterr().err
