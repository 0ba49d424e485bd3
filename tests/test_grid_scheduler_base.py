"""Tests for SchedulerBase: costing, dispatch, primitives."""

import pytest

from repro.core import Category
from repro.grid import JobState
from repro.network import Message, MessageKind, StatusForward
from repro.workload import JobClass

from helpers import MiniGrid, make_job


class TestCosting:
    def test_decision_cost_scales_with_table(self):
        small = MiniGrid(n_clusters=1, resources_per_cluster=2).schedulers[0]
        big = MiniGrid(n_clusters=1, resources_per_cluster=50).schedulers[0]
        assert big.decision_cost() > small.decision_cost()
        assert big.decision_cost() == pytest.approx(
            big.costs.decision_base + 50 * big.costs.scan_per_entry
        )

    def test_submit_charged_to_schedule(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=2)
        job = make_job()
        g.submit(job)
        g.sim.run()
        assert g.ledger.total(Category.SCHEDULE) >= g.schedulers[0].decision_cost() - 1e-9

    def test_unknown_kind_costing_raises(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        with pytest.raises(ValueError):
            g.schedulers[0].service_time(Message("exotic"))

    def test_flat_costs_mapped(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        s = g.schedulers[0]
        assert s.service_time(Message(MessageKind.POLL_REQUEST)) == g.costs.poll_proc
        assert s.cost_category(Message(MessageKind.POLL_REQUEST)) == Category.POLL
        assert s.service_time(Message(MessageKind.JOB_COMPLETE)) == g.costs.completion_proc
        assert s.cost_category(Message(MessageKind.AUCTION_BID)) == Category.AUCTION


class TestLocalScheduling:
    def test_local_job_completes(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=2)
        job = make_job(execution=20.0)
        g.submit(job)
        g.sim.run()
        assert job.state == JobState.COMPLETED
        assert job.executed_cluster == 0
        assert g.schedulers[0].jobs_dispatched_local == 1

    def test_least_loaded_resource_chosen(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=3)
        s = g.schedulers[0]
        s.table.record(0, 5.0, 0.0)
        s.table.record(1, 1.0, 0.0)
        s.table.record(2, 3.0, 0.0)
        job = make_job(execution=1000.0)
        g.submit(job)
        g.sim.run(until=50.0)
        assert g.resources[1].jobs_received == 1

    def test_optimistic_bump_spreads_consecutive_jobs(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=3)
        jobs = [make_job(execution=500.0) for _ in range(3)]
        for j in jobs:
            g.submit(j)
        g.sim.run(until=100.0)
        # With bumps, the three jobs land on three distinct resources.
        assert sorted(r.jobs_received for r in g.resources) == [1, 1, 1]

    def test_default_remote_class_runs_locally(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=2)
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.executed_cluster == 0
        assert job.transfers == 0

    def test_job_transfer_schedules_locally(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=2)
        a, b = g.schedulers
        job = make_job(cluster=0, execution=10.0)
        a.transfer_job(job, b)
        g.sim.run()
        assert job.executed_cluster == 1
        assert job.transfers == 1
        assert a.jobs_sent_remote == 1
        assert b.jobs_received_remote == 1


class TestPrimitives:
    def test_pick_peers_distinct_and_bounded(self):
        g = MiniGrid(n_clusters=4, resources_per_cluster=1)
        s = g.schedulers[0]
        peers = s.pick_peers(2)
        assert len(peers) == 2
        assert len(set(id(p) for p in peers)) == 2
        assert s not in peers
        assert s.pick_peers(99) == s.pick_peers(99) or len(s.pick_peers(99)) == 3

    def test_pick_peers_zero_or_no_peers(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        assert g.schedulers[0].pick_peers(2) == []
        g2 = MiniGrid(n_clusters=3, resources_per_cluster=1)
        assert g2.schedulers[0].pick_peers(0) == []

    def test_local_average_load(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=2)
        s = g.schedulers[0]
        s.table.record(0, 4.0, 0.0)
        assert s.local_average_load() == 2.0

    def test_park_job_timeout_forces_local_dispatch(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        s = g.schedulers[0]
        s.wait_timeout = 50.0
        job = make_job(execution=10.0)
        s.park_job(job)
        assert s.parked_count == 1
        g.sim.run()
        assert job.state == JobState.COMPLETED
        assert job.completion_time >= 50.0

    def test_pop_parked_skips_already_placed(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        s = g.schedulers[0]
        s.wait_timeout = 1000.0
        j1, j2 = make_job(), make_job()
        s.park_job(j1)
        s.park_job(j2)
        # j1 gets placed by some other path
        j1.mark_placed(0)
        assert s.peek_parked() is j2
        assert s.pop_parked() is j2
        assert s.pop_parked() is None

    def test_status_forward_refreshes_table_and_hook(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=2)
        s = g.schedulers[0]
        seen = []
        # the hook sees the table already refreshed
        s.after_status_update = lambda: seen.append(s.table.load_of(1))
        s.deliver(StatusForward(0, {1: 7}))
        g.sim.run()
        assert s.table.load_of(1) == 7
        assert seen and seen[0] == 7

    def test_foreign_status_update_ignored_but_hooked(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1)
        s = g.schedulers[0]
        seen = []
        s.after_status_update = lambda: seen.append(None)
        s.deliver(StatusForward(1, {1: 9}))
        g.sim.run()
        # resource 1 belongs to cluster 1; table untouched, hook fired.
        assert len(seen) == 1

    def test_unimplemented_protocol_message_raises(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        g.schedulers[0].deliver(Message(MessageKind.AUCTION_BID))
        with pytest.raises(ValueError):
            g.sim.run()


class TestCentralLayout:
    def test_central_manages_all_resources(self):
        g = MiniGrid(n_clusters=3, resources_per_cluster=2, central=True)
        assert len(g.schedulers) == 1
        s = g.schedulers[0]
        assert len(s.resources) == 6
        assert len(s.table) == 6

    def test_central_decision_cost_covers_pool(self):
        g = MiniGrid(n_clusters=3, resources_per_cluster=2, central=True)
        s = g.schedulers[0]
        assert s.decision_cost() == pytest.approx(
            g.costs.decision_base + 6 * g.costs.scan_per_entry
        )
