"""AUCTION: idle clusters auction their capacity to overloaded ones.

Paper §3.3 (after Leland & Ott): "When a new job arrives, a scheduler
follows the same process as in LOWEST for initial scheduling.  When a
scheduler S_a finds a resource in its cluster is idle or has load below
threshold T_l, it sends out auction invitations to L_p neighboring
schedulers.  A scheduler S_b receiving the invitation finds a resource
in its local cluster with load above T_l, it replies back with a bid to
S_a.  The auctioning scheduler S_a accumulates bids over a small
interval and selects the bid from the bidder with the highest load."

AUCTION is a **hybrid**: invitations are pushed on observed idleness
(triggered by the status-update plane), while winning a bid effectively
pulls a job from the most-loaded bidder.  Both halves consume status
traffic, which is why the paper finds AUCTION (and Sy-I) degrade
fastest when the estimator plane is scaled up (Figs. 4, 6, 7).

Implementation notes
--------------------
* "Initial scheduling as in LOWEST" is read as LOWEST's *local* rule
  (least-loaded resource of the cluster); inter-cluster balancing is
  the auction's job.  Overloaded schedulers briefly *hold* REMOTE-class
  jobs at the scheduler (a bounded wait queue) so an auction award has
  something to hand over — the Leland–Ott style migration pool.
* Invitations are rate-limited by ``volunteer_interval`` and evaluated
  whenever the scheduler's view changes.
* Bids report the bidder's highest known resource load; the award asks
  the winner to transfer the oldest held job.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..grid.jobs import Job, JobState
from ..grid.scheduler import SchedulerBase
from ..network.messages import Message, MessageKind
from .base import RMSInfo, unpark_for_transfer

__all__ = ["AuctionScheduler", "AUCTION_INFO"]


class AuctionScheduler(SchedulerBase):
    """The AUCTION hybrid scheduler."""

    #: minimum spacing between auction rounds at one scheduler
    volunteer_interval: float = 120.0
    #: how long bids are accumulated before the auction closes
    auction_window: float = 10.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._auction_seq = itertools.count()
        #: open auctions: auction_id -> list of (bidder, load)
        self._open_auctions: Dict[int, List[Tuple[SchedulerBase, float]]] = {}
        self._last_invite = -float("inf")
        #: diagnostics
        self.auctions_started = 0
        self.bids_sent = 0
        self.awards_sent = 0

    # -- holding pool -----------------------------------------------------
    def on_remote_job(self, job: Job) -> None:
        """Hold REMOTE jobs at the scheduler while the cluster is above
        threshold (they are the auctionable pool); otherwise place
        locally at once."""
        if self.local_average_load() > self.t_l:
            self.park_job(job)
        else:
            self.schedule_local(job)

    # -- auctioneer side (idle cluster) ------------------------------------
    def _maybe_invite(self) -> None:
        if self.sim.now - self._last_invite < self.volunteer_interval:
            return
        if self.table.min_load() < max(self.t_l, 1.0):  # an idle/near-idle resource
            peers = self.pick_peers(self.l_p)
            if not peers:
                return
            self._last_invite = self.sim.now
            auction_id = next(self._auction_seq)
            self._open_auctions[auction_id] = []
            self.auctions_started += 1
            for peer in peers:
                self.send_to_peer(
                    Message(
                        MessageKind.AUCTION_INVITE,
                        payload={"auction_id": auction_id, "reply_to": self},
                    ),
                    peer,
                )
            self.sim.schedule(self.auction_window, self._close_auction, auction_id)

    def after_status_update(self) -> None:
        """Fresh state may reveal an idle resource worth auctioning."""
        self._maybe_invite()

    def after_completion(self, job: Job) -> None:
        """A completion may free a resource; consider inviting."""
        self._maybe_invite()

    def _close_auction(self, auction_id: int) -> None:
        bids = self._open_auctions.pop(auction_id, [])
        if not bids:
            return
        winner = max(bids, key=lambda b: b[1])[0]
        self.awards_sent += 1
        self.send_to_peer(
            Message(MessageKind.AUCTION_AWARD, payload={"reply_to": self}),
            winner,
        )

    def on_auction_bid(self, message: Message) -> None:
        """Collect a bid if its auction is still open."""
        auction_id = message.payload["auction_id"]
        bids = self._open_auctions.get(auction_id)
        if bids is not None:
            bids.append((message.payload["reply_to"], message.payload["load"]))

    # -- bidder side (overloaded cluster) ------------------------------------
    def on_auction_invite(self, message: Message) -> None:
        """Bid when this cluster is loaded (a held job or a resource
        above threshold) — the bid carries our pain level."""
        max_load = max(self.table.loads().values(), default=0.0)
        if self.parked_count > 0 or max_load > self.t_l:
            self.bids_sent += 1
            self.send_to_peer(
                Message(
                    MessageKind.AUCTION_BID,
                    payload={
                        "auction_id": message.payload["auction_id"],
                        "reply_to": self,
                        "load": max_load + self.parked_count,
                    },
                ),
                message.payload["reply_to"],
            )

    def on_auction_award(self, message: Message) -> None:
        """We won: hand the oldest held job to the auctioneer."""
        auctioneer = message.payload["reply_to"]
        job = self.pop_parked()
        if job is None:
            return  # pool drained since we bid; award wasted
        unpark_for_transfer(job)
        self.transfer_job(job, auctioneer)


AUCTION_INFO = RMSInfo(
    name="AUCTION",
    scheduler_cls=AuctionScheduler,
    mechanism="hybrid",
    uses_volunteering=True,
)
