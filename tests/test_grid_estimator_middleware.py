"""Tests for Estimator forwarding and Middleware relaying."""

import pytest

from repro.core import Category
from repro.grid import Estimator
from repro.network import Message, MessageKind, StatusUpdate

from helpers import MiniGrid


class TestEstimator:
    def test_forwards_update_to_owning_scheduler(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=2)
        est = g.estimators[0]
        sched = g.schedulers[0]
        est.deliver(StatusUpdate(0, 0, 3, 0))
        g.sim.run()
        assert est.forwarded == 1
        assert sched.table.load_of(0) == 3

    def test_colocated_forward_skips_network(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        sent_before = g.network.messages_sent
        g.estimators[0].deliver(StatusUpdate(0, 0, 1, 0))
        g.sim.run()
        assert g.network.messages_sent == sent_before  # local handoff
        assert g.schedulers[0].table.load_of(0) == 1

    def test_remote_forward_uses_network(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1)
        # Re-point estimator 0 at a different node so it is NOT co-located.
        est = Estimator(g.sim, "est_far", node=0, estimator_id=9, ledger=g.ledger, costs=g.costs)
        est.network = g.network
        est.schedulers = {0: g.schedulers[0]}
        sent_before = g.network.messages_sent
        est.deliver(StatusUpdate(0, 0, 2, 0))
        g.sim.run()
        assert g.network.messages_sent == sent_before + 1
        assert g.schedulers[0].table.load_of(0) == 2

    def test_unknown_cluster_dropped(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        est = g.estimators[0]
        est.deliver(StatusUpdate(0, 7, 2, 0))
        g.sim.run()
        assert est.forwarded == 0

    def test_wrong_kind_rejected(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        g.estimators[0].deliver(Message(MessageKind.POLL_REQUEST))
        with pytest.raises(ValueError):
            g.sim.run()

    def test_busy_time_charged_as_rms_overhead(self):
        g = MiniGrid(n_clusters=1, resources_per_cluster=1)
        before = g.ledger.total(Category.ESTIMATOR)
        g.estimators[0].deliver(StatusUpdate(0, 0, 1, 0))
        g.sim.run()
        assert g.ledger.total(Category.ESTIMATOR) == pytest.approx(
            before + g.costs.estimator_proc
        )


class TestMiddleware:
    def test_relay_reaches_recipient(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        a, b = g.schedulers
        got = []
        b.on_poll_request = lambda msg: got.append(msg)
        inner = Message(MessageKind.POLL_REQUEST, payload={"x": 1})
        g.middleware.relay(inner, a, b)
        g.sim.run()
        assert got and got[0] is inner
        assert got[0].sender is a
        assert g.middleware.relayed == 1

    def test_relay_service_time_charged(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        a, b = g.schedulers
        b.on_poll_request = lambda msg: None
        g.middleware.relay(Message(MessageKind.POLL_REQUEST), a, b)
        g.sim.run()
        assert g.ledger.total(Category.MIDDLEWARE) == pytest.approx(
            g.costs.middleware_service
        )

    def test_relay_serializes_backlog(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        a, b = g.schedulers
        arrivals = []
        b.on_poll_request = lambda msg: arrivals.append(g.sim.now)
        for _ in range(5):
            g.middleware.relay(Message(MessageKind.POLL_REQUEST), a, b)
        g.sim.run()
        assert len(arrivals) == 5
        gaps = [arrivals[i + 1] - arrivals[i] for i in range(4)]
        # Single-server relay: consecutive deliveries at least one
        # service time apart.
        assert all(gap >= g.costs.middleware_service - 1e-9 for gap in gaps)

    def test_wrong_kind_rejected(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        g.middleware.deliver(Message(MessageKind.POLL_REQUEST))
        with pytest.raises(ValueError):
            g.sim.run()

    def test_scheduler_send_to_peer_uses_middleware_when_enabled(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        a, b = g.schedulers
        a.use_middleware = True
        got = []
        b.on_poll_request = lambda msg: got.append(msg)
        a.send_to_peer(Message(MessageKind.POLL_REQUEST), b)
        g.sim.run()
        assert g.middleware.relayed == 1
        assert len(got) == 1

    def test_scheduler_send_to_peer_direct_by_default(self):
        g = MiniGrid(n_clusters=2, resources_per_cluster=1, use_middleware=True)
        a, b = g.schedulers
        got = []
        b.on_poll_request = lambda msg: got.append(msg)
        a.send_to_peer(Message(MessageKind.POLL_REQUEST), b)
        g.sim.run()
        assert g.middleware.relayed == 0
        assert len(got) == 1
