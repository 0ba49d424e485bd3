"""RESERVE: lightly-loaded clusters register reservations in advance.

Paper §3.3 (after Zhou): "When average cluster load for a local cluster
for a scheduler S_a falls below threshold T_l, then S_a advertises to
register reservations at L_p remote schedulers.  On a REMOTE job
arrival, a scheduler will examine the average load of its local
cluster.  If it is above T_l, it probes the remote scheduler that made
the most recent reservation.  The job is sent to the remote scheduler
if the loading there is below a given threshold.  Otherwise, the
reservations are cancelled."

The advertisement is **push**-flavoured state estimation: availability
information travels ahead of demand, so the per-job cost is a single
probe instead of an ``L_p``-wide poll — but the background
advertisement traffic is paid whether or not REMOTE jobs arrive, and
stale reservations cause probe/cancel churn (the mechanism behind
RESERVE's poor showing when ``L_p`` is scaled in the paper's Fig. 5).

Implementation notes
--------------------
* Advertisements are re-evaluated whenever the scheduler's view changes
  (status updates, completions), rate-limited to one round per
  ``volunteer_interval`` (the "interval for resource volunteering"
  enabler of Table 5).
* A reservation is a ``(scheduler, timestamp)`` pair; the probe targets
  the most recent one, per the paper.
* A probe timeout falls back to local placement, so a lost reply never
  strands a job.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..grid.jobs import Job
from ..grid.scheduler import SchedulerBase
from ..network.messages import Message, MessageKind
from .base import PendingPoll, PollBook, RMSInfo

__all__ = ["ReserveScheduler", "RESERVE_INFO"]


class ReserveScheduler(SchedulerBase):
    """The RESERVE reservation-based scheduler."""

    #: minimum spacing between advertisement rounds (enabler-controlled)
    volunteer_interval: float = 120.0
    #: how long to wait for a probe reply before scheduling locally
    probe_timeout: float = 30.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: reservations held here: most recent last
        self._reservations: List[Tuple[SchedulerBase, float]] = []
        self._last_advert = -float("inf")
        self._probes = PollBook(self, self.probe_timeout, self._probe_decide)
        #: peers currently holding a reservation from us (insertion
        #: ordered — iteration must be deterministic); retracted when a
        #: local crash invalidates the advertised capacity
        self._advertised_to: Dict[SchedulerBase, bool] = {}
        #: diagnostics
        self.adverts_sent = 0
        self.probes_sent = 0
        self.cancellations = 0
        self.retractions = 0

    # -- advertisement (push) ---------------------------------------------
    def _maybe_advertise(self) -> None:
        if self.sim.now - self._last_advert < self.volunteer_interval:
            return
        if self.local_average_load() < self.t_l:
            self._last_advert = self.sim.now
            for peer in self.pick_peers(self.l_p):
                self.adverts_sent += 1
                self._advertised_to[peer] = True
                self.send_to_peer(
                    Message(
                        MessageKind.RESERVE_ADVERT,
                        payload={"reply_to": self},
                    ),
                    peer,
                )

    def after_status_update(self) -> None:
        """Re-evaluate the advertisement trigger on fresh state."""
        self._maybe_advertise()

    def after_completion(self, job: Job) -> None:
        """Completions can drop the average load below ``T_l``."""
        self._maybe_advertise()

    def on_reserve_advert(self, message: Message) -> None:
        """Register (or refresh) a reservation from the sender."""
        reserver = message.payload["reply_to"]
        self._reservations = [(s, t) for s, t in self._reservations if s is not reserver]
        self._reservations.append((reserver, self.sim.now))

    # -- REMOTE job arrival (probe) -----------------------------------------
    def on_remote_job(self, job: Job) -> None:
        """Probe the most recent reservation if the local cluster is
        above threshold; otherwise keep the job local."""
        if self.local_average_load() <= self.t_l or not self._reservations:
            self.schedule_local(job)
            return
        target, _ = self._reservations[-1]
        self.probes_sent += 1
        self._probes.open(job, expected=1)
        self.send_to_peer(
            Message(
                MessageKind.RESERVE_PROBE,
                payload={"job_id": job.job_id, "reply_to": self},
            ),
            target,
        )

    def on_reserve_probe(self, message: Message) -> None:
        """Accept iff the local cluster is still below threshold."""
        requester = message.payload["reply_to"]
        accept = self.local_average_load() < self.t_l
        self.send_to_peer(
            Message(
                MessageKind.RESERVE_REPLY,
                payload={
                    "job_id": message.payload["job_id"],
                    "accept": accept,
                },
            ),
            requester,
        )

    def on_reserve_reply(self, message: Message) -> None:
        self._probes.record_reply(
            message.payload["job_id"], message.sender, message.payload
        )

    def _probe_decide(self, pending: PendingPoll) -> None:
        """Transfer on acceptance; on refusal (or timeout) cancel the
        reservations — they are evidently stale — and go local."""
        job = pending.job
        if pending.replies and pending.replies[0][1]["accept"]:
            self.transfer_job(job, pending.replies[0][0])
            return
        if pending.replies:  # explicit refusal: drop all reservations
            self.cancellations += 1
            for reserver, _ in self._reservations:
                self.send_to_peer(
                    Message(MessageKind.RESERVE_CANCEL, payload={"reply_to": self}),
                    reserver,
                )
            self._reservations.clear()
        self.schedule_local(job)

    def on_reserve_cancel(self, message: Message) -> None:
        """Two directions share this kind: a holder dropping our
        reservation (legacy; allow a fresh advert soon), or — with the
        ``drop`` flag — a reserver retracting the reservation it gave us
        because a crash invalidated the advertised capacity."""
        if message.payload.get("drop"):
            reserver = message.payload["reply_to"]
            self._reservations = [
                (s, t) for s, t in self._reservations if s is not reserver
            ]
            return
        self._last_advert = -float("inf")

    # -- crash invalidation -----------------------------------------------
    def on_cluster_degraded(self, resource_id: int) -> None:
        """A local resource died: if the cluster can no longer honor its
        advertised reservations (average load back above ``T_l``),
        retract them at every holder so stale reservations do not route
        jobs into a degraded cluster."""
        if not self._advertised_to:
            return
        load = self.local_average_load()
        if load == load and load < self.t_l:  # NaN-safe: all-dead -> retract
            return
        for peer in self._advertised_to:
            self.retractions += 1
            self.send_to_peer(
                Message(
                    MessageKind.RESERVE_CANCEL,
                    payload={"drop": True, "reply_to": self},
                ),
                peer,
            )
        self._advertised_to.clear()


RESERVE_INFO = RMSInfo(
    name="RESERVE",
    scheduler_cls=ReserveScheduler,
    mechanism="push",
    uses_volunteering=True,
)
