"""Tests for the reliable-job-plane rules of the transport."""

import pytest

from repro.network import Message, MessageKind, Network, Router, StatusUpdate
from repro.network.transport import RELIABLE_KINDS, _effective_kind
from repro.sim import Entity, RngHub, Simulator
from repro.topology import Topology


class Inbox(Entity):
    def __init__(self, sim, name, node):
        super().__init__(sim, name, node)
        self.got = []

    def handle(self, message):
        self.got.append(message)


def lossy_net(loss=0.9, seed=0):
    sim = Simulator()
    topo = Topology(2)
    topo.add_link(0, 1, 0.5, 100.0)
    net = Network(
        sim, Router(topo), loss_probability=loss, rng=RngHub(seed).stream("loss")
    )
    return sim, net


class TestEffectiveKind:
    def test_plain_message(self):
        assert _effective_kind(Message(MessageKind.POLL_REQUEST)) == MessageKind.POLL_REQUEST

    def test_relay_unwraps_inner(self):
        inner = Message(MessageKind.JOB_TRANSFER)
        wrapper = Message(
            MessageKind.MIDDLEWARE_RELAY, payload={"inner": inner, "recipient": None}
        )
        assert _effective_kind(wrapper) == MessageKind.JOB_TRANSFER

    def test_relay_without_inner(self):
        wrapper = Message(MessageKind.MIDDLEWARE_RELAY, payload={})
        assert _effective_kind(wrapper) == MessageKind.MIDDLEWARE_RELAY


class TestReliability:
    def test_job_plane_never_dropped(self):
        sim, net = lossy_net(loss=0.9)
        dst = Inbox(sim, "dst", 1)
        for kind in RELIABLE_KINDS:
            for _ in range(30):
                net.send(Message(kind), 0, dst)
        sim.run()
        assert net.messages_dropped == 0
        assert len(dst.got) == 30 * len(RELIABLE_KINDS)

    def test_control_plane_dropped(self):
        sim, net = lossy_net(loss=0.9)
        dst = Inbox(sim, "dst", 1)
        for _ in range(100):
            net.send(StatusUpdate(0, 0, 0, 0), 0, dst)
        sim.run()
        assert net.messages_dropped > 60

    def test_relayed_transfer_reliable_but_relayed_poll_lossy(self):
        sim, net = lossy_net(loss=0.9, seed=1)
        dst = Inbox(sim, "dst", 1)
        for _ in range(50):
            inner = Message(MessageKind.JOB_TRANSFER)
            net.send(
                Message(
                    MessageKind.MIDDLEWARE_RELAY,
                    payload={"inner": inner, "recipient": dst},
                ),
                0,
                dst,
            )
        assert net.messages_dropped == 0
        for _ in range(50):
            inner = Message(MessageKind.POLL_REQUEST)
            net.send(
                Message(
                    MessageKind.MIDDLEWARE_RELAY,
                    payload={"inner": inner, "recipient": dst},
                ),
                0,
                dst,
            )
        assert net.messages_dropped > 25

    def test_reliable_kinds_cover_job_plane(self):
        assert RELIABLE_KINDS == {
            MessageKind.JOB_SUBMIT,
            MessageKind.JOB_DISPATCH,
            MessageKind.JOB_TRANSFER,
            MessageKind.JOB_COMPLETE,
            # losing a dead-resource declaration would strand the
            # victim's jobs forever, so it rides the reliable plane too
            MessageKind.RESOURCE_DEAD,
        }


class TestNoStrandedJobs:
    """No protocol may strand a job under heavy link loss.

    The job plane is reliable by construction, so even at 25-50% loss
    every submitted job must eventually complete.  This promotes the
    assertion from ``examples/failure_injection.py`` into the suite.
    """

    @pytest.mark.parametrize("loss", [0.25, 0.5])
    @pytest.mark.parametrize(
        "rms", ["CENTRAL", "LOWEST", "RESERVE", "AUCTION", "S-I", "R-I", "Sy-I"]
    )
    def test_all_jobs_complete_under_loss(self, rms, loss):
        from repro.experiments import SimulationConfig, run_simulation
        from repro.faults import FaultPlan

        config = SimulationConfig(
            rms=rms,
            n_schedulers=2,
            n_resources=6,
            workload_rate=0.004,
            horizon=1500.0,
            drain=8000.0,
            seed=11,
            faults=FaultPlan(link_loss=loss),
        )
        metrics = run_simulation(config)
        assert metrics.jobs_submitted > 0
        assert metrics.jobs_completed == metrics.jobs_submitted
