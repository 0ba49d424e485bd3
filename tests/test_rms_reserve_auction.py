"""Protocol tests for RESERVE and AUCTION."""

import pytest

from repro.grid import JobState
from repro.network import Message, MessageKind, StatusForward
from repro.rms import AuctionScheduler, ReserveScheduler
from repro.workload import JobClass

from helpers import MiniGrid, make_job


def mark_cluster_loaded(sched, load=5.0):
    for rid in sched.table.loads():
        sched.table.record(rid, load, sched.sim.now)


class TestReserve:
    def make(self, n_clusters=2):
        g = MiniGrid(
            scheduler_cls=ReserveScheduler, n_clusters=n_clusters,
            resources_per_cluster=2,
        )
        for s in g.schedulers:
            s.l_p = 1
        return g

    def trigger_advert(self, sched):
        """Feed a status update so the idle cluster advertises."""
        sched.deliver(
            StatusForward(sched.scheduler_id, {min(sched.table.loads()): 0})
        )

    def test_idle_cluster_advertises(self):
        g = self.make()
        s1 = g.schedulers[1]
        self.trigger_advert(s1)
        g.sim.run()
        assert s1.adverts_sent == 1
        assert len(g.schedulers[0]._reservations) == 1

    def test_advert_rate_limited(self):
        g = self.make()
        s1 = g.schedulers[1]
        self.trigger_advert(s1)
        g.sim.run()
        self.trigger_advert(s1)  # within volunteer_interval
        g.sim.run()
        assert s1.adverts_sent == 1

    def test_loaded_cluster_does_not_advertise(self):
        g = self.make()
        s1 = g.schedulers[1]
        mark_cluster_loaded(s1)
        self.trigger_advert(s1)  # update says load 0 for one resource; avg 2.5 > T_l
        g.sim.run()
        assert s1.adverts_sent == 0

    def test_remote_job_uses_reservation(self):
        g = self.make()
        s0, s1 = g.schedulers
        self.trigger_advert(s1)
        g.sim.run()
        mark_cluster_loaded(s0)  # local above threshold
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert s0.probes_sent == 1
        assert job.executed_cluster == 1
        assert job.transfers == 1

    def test_remote_job_local_when_below_threshold(self):
        g = self.make()
        s0, s1 = g.schedulers
        self.trigger_advert(s1)
        g.sim.run()
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)  # local avg load 0 <= T_l
        g.sim.run()
        assert s0.probes_sent == 0
        assert job.executed_cluster == 0

    def test_refused_probe_cancels_reservations(self):
        g = self.make()
        s0, s1 = g.schedulers
        self.trigger_advert(s1)
        g.sim.run()
        mark_cluster_loaded(s0)
        mark_cluster_loaded(s1)  # reservation now stale: s1 is loaded too
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.executed_cluster == 0  # refused -> local
        assert s0.cancellations == 1
        assert s0._reservations == []

    def test_no_reservations_means_local(self):
        g = self.make()
        s0 = g.schedulers[0]
        mark_cluster_loaded(s0)
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.executed_cluster == 0
        assert s0.probes_sent == 0

    def test_probe_timeout_falls_back_local(self):
        g = self.make()
        s0, s1 = g.schedulers
        self.trigger_advert(s1)
        g.sim.run()
        mark_cluster_loaded(s0)
        s1.on_reserve_probe = lambda m: None  # peer drops probes
        job = make_job(execution=100.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.state == JobState.COMPLETED
        assert job.executed_cluster == 0


class TestAuction:
    def make(self, n_clusters=2):
        g = MiniGrid(
            scheduler_cls=AuctionScheduler, n_clusters=n_clusters,
            resources_per_cluster=2,
        )
        for s in g.schedulers:
            s.l_p = 1
        return g

    def feed_update(self, sched, load=0):
        sched.deliver(
            StatusForward(sched.scheduler_id, {min(sched.table.loads()): load})
        )

    def test_local_class_jobs_bypass_auction(self):
        g = self.make()
        job = make_job(execution=50.0, job_class=JobClass.LOCAL)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.executed_cluster == 0

    def test_remote_job_parked_when_loaded(self):
        g = self.make()
        s0 = g.schedulers[0]
        mark_cluster_loaded(s0)
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run(until=5.0)
        assert job.state == JobState.WAITING
        assert s0.parked_count == 1

    def test_remote_job_immediate_when_light(self):
        g = self.make()
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.executed_cluster == 0
        assert g.schedulers[0].parked_count == 0

    def test_full_auction_moves_parked_job(self):
        g = self.make()
        s0, s1 = g.schedulers
        mark_cluster_loaded(s0)
        job = make_job(execution=900.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run(until=5.0)
        assert job.state == JobState.WAITING
        # Idle cluster 1 sees an update -> invites -> s0 bids -> award.
        self.feed_update(s1, load=0)
        g.sim.run()
        # (completions re-trigger invitations later; at least the first
        # auction ran to an award)
        assert s1.auctions_started >= 1
        assert s0.bids_sent >= 1
        assert s1.awards_sent >= 1
        assert job.executed_cluster == 1
        assert job.transfers == 1
        assert job.state == JobState.COMPLETED

    def test_no_bids_when_nobody_loaded(self):
        g = self.make()
        s0, s1 = g.schedulers
        self.feed_update(s1, load=0)
        g.sim.run()
        assert s1.auctions_started == 1
        assert s0.bids_sent == 0
        assert s1.awards_sent == 0

    def test_invite_rate_limited(self):
        g = self.make()
        s1 = g.schedulers[1]
        self.feed_update(s1, load=0)
        g.sim.run()
        self.feed_update(s1, load=0)
        g.sim.run()
        assert s1.auctions_started == 1

    def test_award_with_drained_pool_is_harmless(self):
        g = self.make()
        s0, s1 = g.schedulers
        s0.deliver(Message(MessageKind.AUCTION_AWARD, payload={"reply_to": s1}))
        g.sim.run()
        assert s0.jobs_sent_remote == 0

    def test_park_timeout_forces_local(self):
        g = self.make()
        s0 = g.schedulers[0]
        s0.wait_timeout = 40.0
        mark_cluster_loaded(s0)
        job = make_job(execution=10.0, job_class=JobClass.REMOTE)
        g.submit(job, cluster=0)
        g.sim.run()
        assert job.state == JobState.COMPLETED
        assert job.executed_cluster == 0

    def test_highest_load_bidder_wins(self):
        g = self.make(n_clusters=3)
        s0, s1, s2 = g.schedulers
        s2.l_p = 2
        mark_cluster_loaded(s0, load=3.0)
        mark_cluster_loaded(s1, load=9.0)
        self.feed_update(s2, load=0)
        g.sim.run()
        # s1 (load 9) must win the award over s0 (load 3).
        assert s2.awards_sent == 1
        assert s1.served > 0  # received the award message
        # No parked jobs anywhere, so no transfer occurs; award wasted.
        assert s1.jobs_sent_remote == 0
