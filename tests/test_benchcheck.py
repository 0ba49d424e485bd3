"""The perf-regression watchdog's comparison logic, on synthetic
bench records (no simulations run here)."""

import pytest

from repro.experiments.benchcheck import (
    CheckResult,
    compare_bench,
    load_baseline,
    render_checks,
    worst_status,
)


def record(**overrides):
    """A minimal, internally consistent bench-perf payload."""
    payload = {
        "schema": 4,
        "profile": "ci",
        "case": 1,
        "seed": 7,
        "sa_iterations": 10,
        "rms": ["CENTRAL", "LOWEST"],
        "kernel": {
            "storm": {"events": 200_000, "seconds": 0.5, "events_per_sec": 400_000.0},
            "fel": {"events": 1_000_000, "seconds": 3.0, "events_per_sec": 333_333.0},
        },
        "sims": {"rms": "CENTRAL", "runs": 3, "seconds": 0.2, "sims_per_sec": 15.0},
        "fluid": {
            "overlap": {
                "rms": "LOWEST",
                "n_resources": 500,
                "n_schedulers": 4,
                "n_estimators": 63,
                "horizon": 3000.0,
                "discrete": {"kernel_events": 50_000, "seconds": 5.0},
                "fluid": {"kernel_events": 900, "seconds": 0.8},
                "event_reduction": 55.6,
                "speedup": 6.25,
                "F_identical": True,
                "G_delta_pct": 0.8,
                "H_delta_pct": 0.0,
            },
            "timed": {
                "profile": "extreme",
                "scale": 1.0,
                "n_resources": 25_000,
                "n_schedulers": 32,
                "repeats": 3,
                "seconds": 4.0,
                "kernel_events": 1_200,
                "stats": {"flushes": 225, "modeled_updates": 950_000},
                "G": 4_602_241.5,
            },
            "extreme": {
                "profile": "extreme",
                "scale": 4.0,
                "n_resources": 100_000,
                "n_schedulers": 128,
                "fluid": {"kernel_events": 2_991, "seconds": 130.0},
                "success_rate": 0.578,
                "G": 18_397_365.0,
                "discrete_events_projected": 2_500_000_000,
                "event_reduction_vs_discrete": 835_841.5,
            },
        },
        "study": {
            "baseline": {
                "jobs": 1,
                "warm_start": False,
                "speculation": 0,
                "seconds": 100.0,
                "simulations": 400,
            },
            "arms": [
                {
                    "jobs": 4,
                    "warm_start": True,
                    "speculation": 4,
                    "seconds": 50.0,
                    "simulations": 276,
                    "evaluations_by_scale": {"1": 140, "2": 74},
                    "tuned": {"CENTRAL": [{"update_interval": 40.0}]},
                }
            ],
            "tuned_points_identical_across_jobs": True,
        },
    }
    payload.update(overrides)
    return payload


def by_metric(checks):
    return {c.metric: c for c in checks}


def with_storm(payload, **changes):
    """``payload`` with its kernel storm record updated by ``changes``."""
    kernel = payload["kernel"]
    payload["kernel"] = dict(kernel, storm=dict(kernel["storm"], **changes))
    return payload


class TestCompare:
    def test_identity_passes_everything(self):
        checks = compare_bench(record(), record())
        assert worst_status(checks) == "pass"
        assert all(c.status == "pass" for c in checks)

    def test_small_timing_regression_passes(self):
        cur = record()
        with_storm(cur, events_per_sec=380_000.0)  # -5%
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["kernel.storm.events_per_sec"].status == "pass"

    def test_timing_regression_warns_beyond_warn_tolerance(self):
        cur = record()
        with_storm(cur, events_per_sec=340_000.0)  # -15%
        checks = compare_bench(record(), cur)
        check = by_metric(checks)["kernel.storm.events_per_sec"]
        assert check.status == "warn"
        assert "slower" in check.detail

    def test_timing_regression_fails_beyond_fail_tolerance(self):
        cur = record()
        with_storm(cur, events_per_sec=280_000.0)  # -30%
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["kernel.storm.events_per_sec"].status == "fail"
        assert worst_status(checks) == "fail"

    def test_improvement_never_warns(self):
        cur = record()
        with_storm(cur, events_per_sec=800_000.0)  # 2x faster
        cur["study"] = dict(cur["study"])
        cur["study"]["baseline"] = dict(cur["study"]["baseline"], seconds=10.0)
        checks = compare_bench(record(), cur)
        assert worst_status(checks) == "pass"

    def test_wall_clock_direction_is_lower_is_better(self):
        cur = record()
        cur["study"] = dict(cur["study"])
        cur["study"]["baseline"] = dict(cur["study"]["baseline"], seconds=140.0)  # +40%
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["study.baseline.seconds"].status == "fail"

    def test_count_drift_always_fails(self):
        cur = record()
        cur["study"] = dict(cur["study"])
        cur["study"]["baseline"] = dict(cur["study"]["baseline"], simulations=401)
        checks = compare_bench(record(), cur)
        check = by_metric(checks)["study.baseline.simulations"]
        assert check.status == "fail"
        assert "behavior changed" in check.detail

    def test_tuned_drift_fails(self):
        cur = record()
        cur["study"] = dict(cur["study"])
        cur["study"]["arms"] = [
            dict(cur["study"]["arms"][0], tuned={"CENTRAL": [{"update_interval": 80.0}]})
        ]
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["study.arm[jobs=4].tuned"].status == "fail"

    def test_cross_worker_identity_flag_checked(self):
        cur = record()
        cur["study"] = dict(cur["study"], tuned_points_identical_across_jobs=False)
        checks = compare_bench(record(), cur)
        assert (
            by_metric(checks)["study.tuned_points_identical_across_jobs"].status
            == "fail"
        )

    def test_different_kernel_budget_skips(self):
        cur = record()
        cur["kernel"] = dict(
            cur["kernel"], storm={"events": 50_000, "events_per_sec": 100_000.0}
        )
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["kernel.storm.events_per_sec"].status == "skip"

    def test_different_study_params_skip_study_sections(self):
        cur = record(rms=["LOWEST"])
        cur["sims"] = dict(cur["sims"])
        checks = compare_bench(record(), cur)
        metrics = by_metric(checks)
        assert metrics["study"].status == "skip"
        assert "study.baseline.seconds" not in metrics

    def test_missing_arm_skips(self):
        cur = record()
        cur["study"] = dict(cur["study"], arms=[])
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["study.arm[jobs=4]"].status == "skip"

    def test_degenerate_timing_skips(self):
        cur = record()
        with_storm(cur, events_per_sec=0.0)
        checks = compare_bench(record(), cur)
        assert by_metric(checks)["kernel.storm.events_per_sec"].status == "skip"

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            compare_bench(record(), record(), warn_tolerance=0.3, fail_tolerance=0.1)
        with pytest.raises(ValueError):
            compare_bench(record(), record(), warn_tolerance=0.0)


class TestRender:
    def test_report_lines_and_verdict(self):
        cur = record()
        with_storm(cur, events_per_sec=280_000.0)
        checks = compare_bench(record(), cur)
        out = render_checks(checks, 0.10, 0.25)
        assert "[FAIL] kernel.storm.events_per_sec" in out
        assert out.endswith("verdict: FAIL")

    def test_warn_only_notes_unenforced_exit(self):
        checks = [CheckResult("x", "fail", "d")]
        out = render_checks(checks, 0.10, 0.25, warn_only=True)
        assert "--warn-only" in out

    def test_skips_do_not_worsen_verdict(self):
        checks = [CheckResult("a", "pass", "d"), CheckResult("b", "skip", "d")]
        assert worst_status(checks) == "pass"


class TestLoadBaseline:
    def test_rejects_non_bench_payload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_rejects_old_shape_record(self, tmp_path):
        import json

        old = record(schema=3)
        old["kernel"] = {"backends": {"reference": old["kernel"]}}
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(old))
        with pytest.raises(ValueError, match="schema-3") as exc:
            load_baseline(path)
        assert "\n" not in str(exc.value)

    def test_loads_valid_payload(self, tmp_path):
        import json

        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(record()))
        assert load_baseline(path)["profile"] == "ci"


class TestFluidSection:
    """Satellite contract: a baseline that predates the fluid section
    skips it (and suppresses the extreme-scale run) instead of failing."""

    def test_identity_passes_fluid_checks(self):
        checks = by_metric(compare_bench(record(), record()))
        assert checks["fluid.overlap.F_identical"].status == "pass"
        assert checks["fluid.overlap.kernel_events"].status == "pass"
        assert checks["fluid.extreme.kernel_events"].status == "pass"

    def test_pre_fluid_baseline_skips_not_fails(self):
        baseline = record()
        del baseline["fluid"]
        current = record()
        checks = by_metric(compare_bench(baseline, current))
        assert checks["fluid"].status == "skip"
        assert "baseline" in checks["fluid"].detail
        assert worst_status(compare_bench(baseline, current)) == "pass"

    def test_current_without_fluid_section_skips(self):
        current = record()
        del current["fluid"]
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid"].status == "skip"

    def test_overlap_param_drift_skips_comparison(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["overlap"] = dict(
            current["fluid"]["overlap"], n_resources=2000
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.overlap"].status == "skip"
        assert "fluid.overlap.F_identical" not in checks

    def test_f_divergence_fails(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["overlap"] = dict(
            current["fluid"]["overlap"], F_identical=False
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.overlap.F_identical"].status == "fail"

    def test_kernel_event_drift_fails(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["extreme"] = dict(current["fluid"]["extreme"])
        current["fluid"]["extreme"]["fluid"] = dict(
            current["fluid"]["extreme"]["fluid"], kernel_events=3_100
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.extreme.kernel_events"].status == "fail"

    def test_event_reduction_regression_warns_or_fails(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["extreme"] = dict(
            current["fluid"]["extreme"], event_reduction_vs_discrete=500_000.0
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.extreme.event_reduction_vs_discrete"].status in (
            "warn",
            "fail",
        )

    def test_overlap_counts_gated_exactly(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["overlap"] = dict(
            current["fluid"]["overlap"], event_reduction=55.7
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.overlap.event_reduction"].status == "fail"
        assert checks["fluid.overlap.stats"].status == "pass"

    def test_overlap_speedup_is_not_gated(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["overlap"] = dict(current["fluid"]["overlap"], speedup=1.0)
        checks = compare_bench(record(), current)
        assert worst_status(checks) == "pass"
        assert not any("speedup" in c.metric for c in checks)

    def test_timed_point_slowdown_fails(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["timed"] = dict(current["fluid"]["timed"], seconds=6.0)
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.timed.seconds"].status == "fail"
        assert checks["fluid.timed.counts"].status == "pass"

    def test_timed_point_count_drift_fails(self):
        current = record()
        current["fluid"] = dict(current["fluid"])
        current["fluid"]["timed"] = dict(
            current["fluid"]["timed"], stats={"flushes": 225, "modeled_updates": 1}
        )
        checks = by_metric(compare_bench(record(), current))
        assert checks["fluid.timed.counts"].status == "fail"

    def test_baseline_without_timed_point_skips(self):
        baseline = record()
        baseline["fluid"] = dict(baseline["fluid"])
        del baseline["fluid"]["timed"]
        checks = by_metric(compare_bench(baseline, record()))
        assert checks["fluid.timed"].status == "skip"
        assert "baseline" in checks["fluid.timed"].detail
