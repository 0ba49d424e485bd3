"""Fault-injection subsystem tests: the FaultPlan API, the failure
semantics of the grid layer, detection/re-dispatch end to end, and the
determinism guarantees the run cache depends on."""

import json

import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel.cache import metrics_json_bytes
from repro.experiments.parallel.hashing import config_key
from repro.faults import (
    Blackout,
    CrashEvent,
    DegradationWindow,
    FaultPlan,
    plan_from_jsonable,
    plan_to_jsonable,
)

from helpers import MiniGrid, make_job


def tiny_config(rms="LOWEST", **overrides):
    kwargs = dict(
        rms=rms,
        n_schedulers=2,
        n_resources=6,
        workload_rate=0.004,
        horizon=1500.0,
        drain=4000.0,
        seed=11,
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


CHURN = FaultPlan(resource_mttf=500.0, resource_mttr=60.0)


# ---------------------------------------------------------------------------
# The FaultPlan public API
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_inert_by_default(self):
        plan = FaultPlan()
        assert plan.is_inert
        assert not plan.has_churn
        assert not plan.has_resource_faults
        assert not plan.any_link_loss

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(link_loss=1.0)
        with pytest.raises(ValueError):
            FaultPlan(resource_mttf=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(resource_mttf=100.0, churn_fraction=0.0)
        with pytest.raises(ValueError):
            FaultPlan(redispatch_backoff=0.0)
        with pytest.raises(ValueError):
            CrashEvent(resource=0, at=-1.0)
        with pytest.raises(ValueError):
            Blackout(scheduler=0, at=0.0, duration=-5.0)
        with pytest.raises(ValueError):
            DegradationWindow(at=0.0, duration=10.0, extra_loss=1.5)

    def test_effective_mttr_defaults_to_tenth_of_mttf(self):
        assert FaultPlan(resource_mttf=1000.0).effective_mttr == 100.0
        assert FaultPlan(resource_mttf=1000.0, resource_mttr=5.0).effective_mttr == 5.0

    def test_heartbeat_derivation(self):
        plan = FaultPlan()
        assert plan.effective_heartbeat_timeout(40.0) == pytest.approx(180.0)
        assert plan.effective_heartbeat_interval(40.0) == 40.0
        plan = FaultPlan(heartbeat_timeout=77.0, heartbeat_interval=11.0)
        assert plan.effective_heartbeat_timeout(40.0) == 77.0
        assert plan.effective_heartbeat_interval(40.0) == 11.0

    def test_json_round_trip(self):
        plan = FaultPlan(
            link_loss=0.1,
            resource_mttf=800.0,
            churn_fraction=0.5,
            crashes=[CrashEvent(resource=2, at=100.0, duration=50.0)],
            blackouts=[Blackout(scheduler=1, at=200.0, duration=30.0)],
            degradations=[
                DegradationWindow(at=10.0, duration=40.0, extra_loss=0.2, delay_factor=3.0)
            ],
        )
        payload = plan_to_jsonable(plan)
        # must survive a JSON file round trip (the --fault-plan flag)
        rebuilt = plan_from_jsonable(json.loads(json.dumps(payload)))
        assert rebuilt == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            plan_from_jsonable({"link_loss": 0.1, "mystery_knob": 3})

    def test_timelines_coerced_to_tuples(self):
        plan = FaultPlan(crashes=[CrashEvent(resource=0, at=1.0)])
        assert isinstance(plan.crashes, tuple)


# ---------------------------------------------------------------------------
# Grid-layer failure semantics (unit level)
# ---------------------------------------------------------------------------

class TestResourceFailRepair:
    def test_fail_kills_running_job_and_goes_silent(self):
        grid = MiniGrid(n_clusters=1, resources_per_cluster=1)
        res = grid.resources[0]
        job = grid.submit(make_job(execution=100.0))
        grid.sim.run(until=10.0)
        assert job.state == "running"
        killed = res.fail()
        assert killed == 1
        assert job.state == "failed"
        assert res.failed and not res.online
        assert res.jobs_killed == 1
        # a crashed resource swallows later dispatches without charging
        late = make_job()
        late.mark_placed(0)
        before = grid.ledger.H
        res.accept_job(late)
        assert grid.ledger.H == before
        assert late.state == "failed"

    def test_fail_is_idempotent(self):
        grid = MiniGrid(n_clusters=1, resources_per_cluster=1)
        res = grid.resources[0]
        res.fail()
        assert res.fail() == 0

    def test_repair_restores_service(self):
        grid = MiniGrid(n_clusters=1, resources_per_cluster=1)
        res = grid.resources[0]
        res.fail()
        res.repair()
        assert not res.failed and res.online
        job = grid.submit(make_job(execution=5.0))
        grid.sim.run()
        assert job.state == "completed"

    def test_stale_epoch_dispatch_dropped(self):
        grid = MiniGrid(n_clusters=1, resources_per_cluster=1)
        res = grid.resources[0]
        job = make_job()
        job.mark_placed(0)
        stale = job.dispatch_epoch
        job.mark_failed()
        job.mark_requeued()
        job.mark_placed(0)  # epoch moves on
        res.accept_job(job, epoch=stale)
        assert res.stale_dispatches == 1
        assert not res._queue


class TestJobLifecycle:
    def test_failed_and_requeued_transitions(self):
        job = make_job()
        job.mark_placed(0)
        epoch = job.dispatch_epoch
        job.mark_failed()
        assert job.start_service is None
        job.mark_requeued()
        assert job.retries == 1
        job.mark_placed(0)
        assert job.dispatch_epoch == epoch + 1

    def test_cannot_fail_completed_job(self):
        job = make_job()
        job.mark_placed(0)
        job.mark_running(1.0)
        job.mark_completed(2.0)
        with pytest.raises(ValueError):
            job.mark_failed()


class TestStatusTableDeath:
    def test_dead_resources_age_out_of_views(self):
        from repro.grid import StatusTable

        table = StatusTable([0, 1])
        table.record(0, 0.2, time=1.0)
        table.record(1, 0.8, time=1.0)
        table.mark_dead(0)
        assert table.is_dead(0)
        assert table.alive_count == 1
        assert table.least_loaded()[0] == 1
        assert table.average_load() == pytest.approx(0.8)
        # a *newer* report revives the entry
        table.record(0, 0.1, time=2.0)
        assert not table.is_dead(0)
        assert table.least_loaded()[0] == 0

    def test_all_dead(self):
        from repro.grid import StatusTable

        table = StatusTable([0])
        table.record(0, 0.5, time=1.0)
        table.mark_dead(0)
        rid, load = table.least_loaded()
        assert rid is None
        assert table.alive_count == 0

    def test_untracked_mark_dead_raises(self):
        from repro.grid import StatusTable

        with pytest.raises(KeyError):
            StatusTable([0]).mark_dead(99)


class TestMessageServerPause:
    def test_pause_queues_resume_drains(self):
        grid = MiniGrid(n_clusters=1, resources_per_cluster=1)
        sched = grid.schedulers[0]
        sched.pause()
        assert sched.paused
        job = grid.submit(make_job(execution=5.0))
        grid.sim.run(until=50.0)
        # blacked out: the submission sits in the queue unprocessed
        assert job.state == "submitted"
        sched.resume()
        grid.sim.run()
        assert job.state == "completed"


class TestNetworkDegradation:
    def test_push_pop_scales_loss_and_delay(self):
        from repro.network import Network, Router
        from repro.sim import RngHub, Simulator
        from repro.topology import Topology

        sim = Simulator()
        topo = Topology(2)
        topo.add_link(0, 1, 0.5, 100.0)
        net = Network(
            sim, Router(topo), loss_probability=0.1,
            rng=RngHub(0).stream("loss"), delay_scale=2.0,
        )
        net.push_degradation(extra_loss=0.3, delay_factor=3.0)
        assert net.loss_probability == pytest.approx(0.4)
        assert net.delay_scale == pytest.approx(6.0)
        net.push_degradation(extra_loss=0.8)
        assert net.loss_probability == 0.99  # capped
        net.pop_degradation(extra_loss=0.8)
        net.pop_degradation(extra_loss=0.3, delay_factor=3.0)
        assert net.loss_probability == pytest.approx(0.1)
        assert net.delay_scale == pytest.approx(2.0)

    def test_pop_unknown_window_raises(self):
        from repro.network import Network, Router
        from repro.sim import Simulator
        from repro.topology import Topology

        sim = Simulator()
        topo = Topology(2)
        topo.add_link(0, 1, 0.5, 100.0)
        net = Network(sim, Router(topo))
        with pytest.raises(ValueError):
            net.pop_degradation(delay_factor=2.0)


# ---------------------------------------------------------------------------
# End-to-end fault injection
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_inert_plan_changes_nothing(self):
        baseline = run_simulation(tiny_config())
        with_plan = run_simulation(tiny_config(faults=FaultPlan()))
        assert metrics_json_bytes(baseline) == metrics_json_bytes(with_plan)
        assert baseline.fault_stats is None
        assert all(
            not key.startswith("g.faults")
            for key in (baseline.attribution or {})
        )

    def test_churn_produces_faults_component(self):
        metrics = run_simulation(tiny_config(faults=CHURN))
        stats = metrics.fault_stats
        assert stats is not None
        assert stats["crashes"] > 0
        assert stats["recoveries"] > 0
        assert stats["dead_reported"] > 0
        assert stats["redispatches"] > 0
        faults_g = sum(
            v for k, v in metrics.attribution.items() if k.startswith("g.faults")
        )
        assert faults_g > 0.0

    @pytest.mark.parametrize("rms", ["CENTRAL", "RESERVE", "S-I", "Sy-I", "AUCTION", "R-I"])
    def test_every_design_survives_churn(self, rms):
        metrics = run_simulation(tiny_config(rms=rms, faults=CHURN))
        assert metrics.jobs_submitted > 0
        stats = metrics.fault_stats
        assert stats["crashes"] > 0
        # jobs lost to crashes near the deadline may strand, but the
        # vast majority must be recovered and completed
        assert metrics.jobs_completed >= 0.9 * metrics.jobs_submitted

    def test_churn_is_deterministic(self):
        a = run_simulation(tiny_config(faults=CHURN))
        b = run_simulation(tiny_config(faults=CHURN))
        assert metrics_json_bytes(a) == metrics_json_bytes(b)
        assert a.fault_stats == b.fault_stats

    def test_explicit_crash_timeline(self):
        plan = FaultPlan(crashes=[CrashEvent(resource=0, at=100.0, duration=200.0)])
        metrics = run_simulation(tiny_config(faults=plan))
        assert metrics.fault_stats["crashes"] == 1
        assert metrics.fault_stats["recoveries"] == 1

    def test_permanent_crash(self):
        plan = FaultPlan(crashes=[CrashEvent(resource=0, at=100.0)])
        metrics = run_simulation(tiny_config(faults=plan))
        assert metrics.fault_stats["crashes"] == 1
        assert metrics.fault_stats["recoveries"] == 0

    def test_blackout_window(self):
        plan = FaultPlan(blackouts=[Blackout(scheduler=0, at=100.0, duration=300.0)])
        metrics = run_simulation(tiny_config(faults=plan))
        assert metrics.fault_stats["blackouts"] == 1
        # nothing is lost across a blackout: messages queue and drain
        assert metrics.jobs_completed == metrics.jobs_submitted

    def test_degradation_window(self):
        plan = FaultPlan(
            degradations=[
                DegradationWindow(at=100.0, duration=500.0, extra_loss=0.3, delay_factor=2.0)
            ]
        )
        metrics = run_simulation(tiny_config(faults=plan))
        assert metrics.fault_stats["degradations"] == 1
        assert metrics.jobs_completed == metrics.jobs_submitted

    def test_plan_changes_cache_key(self):
        assert config_key(tiny_config()) != config_key(tiny_config(faults=CHURN))

    def test_fault_stats_survive_cache_round_trip(self):
        from repro.experiments.parallel.cache import (
            metrics_from_jsonable,
            metrics_to_jsonable,
        )

        metrics = run_simulation(tiny_config(faults=CHURN))
        rebuilt = metrics_from_jsonable(
            json.loads(json.dumps(metrics_to_jsonable(metrics)))
        )
        assert rebuilt.fault_stats == metrics.fault_stats


# ---------------------------------------------------------------------------
# Flight recorder integration
# ---------------------------------------------------------------------------

class TestFlightRecorderFaults:
    def test_fault_events_land_in_the_ring(self, tmp_path):
        from repro.telemetry import flightrec

        rec = flightrec.enable(tmp_path)
        try:
            run_simulation(
                tiny_config(
                    faults=FaultPlan(
                        crashes=[CrashEvent(resource=0, at=100.0, duration=50.0)]
                    )
                )
            )
            channel = rec.snapshot()["faults"]
        finally:
            flightrec.disable()
        kinds = [entry["kind"] for entry in channel]
        assert "crash" in kinds and "recover" in kinds


# ---------------------------------------------------------------------------
# The churn study driver
# ---------------------------------------------------------------------------

class TestFaultStudy:
    def test_study_runs_and_writes_attrib_manifest(self, tmp_path):
        from repro.experiments.attrib import points_from_manifest
        from repro.experiments.config import ScaleProfile
        from repro.experiments.faultstudy import fault_report
        from repro.experiments.planstudy import run_plan_study

        manifest = tmp_path / "faults.json"
        # the real profiles are heavyweight; a miniature one keeps this
        # an actual multi-scale study at unit-test cost
        tiny = ScaleProfile(
            name="tiny",
            base_resources=6,
            base_schedulers=2,
            fixed_resources=6,
            fixed_schedulers=2,
            base_rate_per_resource=0.0008,
            horizon=1500.0,
            drain=4000.0,
            scales=(1, 2),
            sa_iterations=1,
        )
        result = run_plan_study(
            "faults",
            FaultPlan(resource_mttf=500.0, resource_mttr=60.0),
            profile=tiny,
            rms=["LOWEST"],
            manifest_path=manifest,
        )
        points = result.points["LOWEST"]
        assert [p.scale for p in points] == [1.0, 2.0]
        assert all(p.g("faults") > 0 for p in points)
        report = fault_report(result)
        assert "G:faults" in report and "LOWEST" in report
        loaded = points_from_manifest(manifest)
        assert {p.rms for p in loaded} == {"LOWEST"}
        assert all(p.attribution for p in loaded)
