"""Scheduler base class: shared machinery of all seven RMS designs.

A scheduler is a **finite-rate message server** (see
:mod:`repro.sim.entity`): every message it receives — a job submission,
a status update, a poll, a bid — occupies it for a processing time
drawn from the :class:`~repro.grid.costs.CostModel`, and that busy time
is exactly the paper's ``G(k)`` ("overall time spent by the schedulers
for scheduling, receiving, and processing updates").

Information model
-----------------
A scheduler's knowledge of resource loads comes *only* from status
updates (forwarded by estimators) plus the optimistic ``+1`` bump it
applies to its own dispatches.  Completion notifications are processed
(and paid for) but do **not** refresh the table: in the paper's model
the status-update plane is the information channel, and keeping it
load-bearing is what gives the update-interval enabler its bite — a
scheduler that stops paying for updates drifts toward blind round-robin
placement and loses jobs to their benefit bounds.

Protocol hooks
--------------
Subclasses in :mod:`repro.rms` override the ``on_*`` handlers that their
protocol uses; unhandled protocol messages raise, so a mis-wired
experiment fails loudly rather than silently dropping messages.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.ledger import Category, CostLedger
from ..network.messages import Message, MessageKind
from ..sim.entity import MessageServer
from ..sim.kernel import Simulator
from .costs import CostModel
from .jobs import Job, JobState
from .resource import Resource
from .status import StatusTable

__all__ = ["SchedulerBase"]


class SchedulerBase(MessageServer):
    """Common scheduler machinery; one instance per cluster.

    Parameters
    ----------
    sim, name, node:
        Standard entity wiring.
    scheduler_id:
        Cluster id this scheduler coordinates.
    ledger, costs:
        Cost accounting.
    """

    #: whether inter-scheduler traffic is relayed through the Grid
    #: middleware (True for the superscheduler RMSs: S-I, R-I, Sy-I)
    use_middleware: bool = False

    #: component kind in attribution source tags
    component = "scheduler"

    #: causal-tracing recorder; stays the class-level ``None`` unless a
    #: run's TracePlan is enabled, so every hook below is one attribute
    #: test on the hot path (same discipline as the ledger observer)
    tracer = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: int,
        scheduler_id: int,
        ledger: CostLedger,
        costs: CostModel,
    ) -> None:
        super().__init__(sim, name, node, ledger=ledger)
        self.scheduler_id = scheduler_id
        self.costs = costs

        # Wired by the builder ------------------------------------------------
        #: the message transport
        self.network = None
        #: resource_id -> Resource for this scheduler's cluster
        self.resources: Dict[int, Resource] = {}
        #: stale view of (at least) the local cluster's loads
        self.table: Optional[StatusTable] = None
        #: neighborhood set: nearest peer schedulers, closest first
        self.peers: List["SchedulerBase"] = []
        #: randomness for peer selection and protocol jitter
        self.rng: Optional[np.random.Generator] = None
        #: shared Grid middleware (superscheduler RMSs only)
        self.middleware = None
        #: number of peers contacted per scheduling action (Table 5's L_p)
        self.l_p: int = 2
        #: threshold load T_l (Table 1: 0.5)
        self.t_l: float = 0.5
        #: how long a parked job may wait before forced local dispatch
        self.wait_timeout: float = 300.0
        #: capped exponential backoff for crash re-dispatch (overridden
        #: from the run's FaultPlan by the builder)
        self.redispatch_backoff: float = 20.0
        self.redispatch_cap: float = 320.0

        # Statistics ----------------------------------------------------------
        self.jobs_submitted = 0
        self.jobs_dispatched_local = 0
        self.jobs_sent_remote = 0
        self.jobs_received_remote = 0
        self._wait_queue: Deque[Job] = deque()

        # Failure recovery ----------------------------------------------------
        #: job_id -> (job, resource_id) for dispatches not yet confirmed
        #: complete; the re-dispatch set when a resource dies
        self._inflight: Dict[int, Tuple[Job, int]] = {}
        self.dead_notices = 0
        self.redispatches = 0
        # recovery work is attributed to the cross-cutting "faults"
        # component (the entity segment still names this scheduler), so
        # `repro attrib` shows recovery as its own G column; the
        # pre-seeded cache entry makes RESOURCE_DEAD service time land
        # there too (cost_source consults the cache first)
        self._src_redispatch = ("faults", name, "redispatch")
        self._source_cache[MessageKind.RESOURCE_DEAD] = (
            "faults",
            name,
            str(MessageKind.RESOURCE_DEAD),
        )

    # ------------------------------------------------------------------
    # Message-server costing
    # ------------------------------------------------------------------
    def decision_cost(self) -> float:
        """Cost of one placement decision: base + status-table scan.

        The scan term is what separates CENTRAL (table = whole pool)
        from the distributed designs (table = one cluster).
        """
        n = len(self.table) if self.table is not None else 0
        return self.costs.decision_base + self.costs.scan_per_entry * n

    #: message kind -> (cost attribute, ledger category); decision-type
    #: kinds are handled in service_time() because their cost is dynamic
    _FLAT_COSTS = {
        MessageKind.STATUS_FORWARD: ("update_proc", Category.UPDATE_RX),
        MessageKind.STATUS_UPDATE: ("update_proc", Category.UPDATE_RX),
        MessageKind.POLL_REQUEST: ("poll_proc", Category.POLL),
        MessageKind.POLL_REPLY: ("poll_proc", Category.POLL),
        MessageKind.RESERVE_ADVERT: ("advert_proc", Category.ADVERT),
        MessageKind.RESERVE_PROBE: ("advert_proc", Category.ADVERT),
        MessageKind.RESERVE_REPLY: ("advert_proc", Category.ADVERT),
        MessageKind.RESERVE_CANCEL: ("advert_proc", Category.ADVERT),
        MessageKind.VOLUNTEER: ("advert_proc", Category.ADVERT),
        MessageKind.DEMAND: ("advert_proc", Category.ADVERT),
        MessageKind.DEMAND_REPLY: ("advert_proc", Category.ADVERT),
        MessageKind.AUCTION_INVITE: ("auction_proc", Category.AUCTION),
        MessageKind.AUCTION_BID: ("auction_proc", Category.AUCTION),
        MessageKind.AUCTION_AWARD: ("auction_proc", Category.AUCTION),
        MessageKind.JOB_COMPLETE: ("completion_proc", Category.COMPLETION),
        MessageKind.JOB_TRANSFER: ("transfer_proc", Category.SCHEDULE),
        MessageKind.RESOURCE_DEAD: ("fault_proc", Category.FAULTS),
    }

    def service_time(self, message: Message) -> float:
        """Processing time this message occupies the scheduler for."""
        kind = message.kind
        if kind == MessageKind.JOB_SUBMIT:
            return self.decision_cost()
        entry = self._FLAT_COSTS.get(kind)
        if entry is None:
            raise ValueError(f"{self.name}: no cost model for {kind}")
        return getattr(self.costs, entry[0])

    def cost_category(self, message: Message) -> str:
        """Ledger category of this message's processing time."""
        if message.kind == MessageKind.JOB_SUBMIT:
            return Category.SCHEDULE
        return self._FLAT_COSTS[message.kind][1]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """Route a fully-processed message to its protocol handler."""
        kind = message.kind
        if kind == MessageKind.JOB_SUBMIT:
            job: Job = message.payload["job"]
            self.jobs_submitted += 1
            self.on_job_submit(job)
        elif kind == MessageKind.JOB_TRANSFER:
            job = message.payload["job"]
            self.jobs_received_remote += 1
            self.on_job_transfer(job)
        elif kind == MessageKind.STATUS_FORWARD:
            if self.table is not None:
                for rid, load in message.entries.items():
                    if rid in self.table:
                        self.table.record(rid, load, self.sim.now)
            self.after_status_update()
        elif kind == MessageKind.JOB_COMPLETE:
            job = message.payload["job"]
            self._inflight.pop(job.job_id, None)
            self.after_completion(job)
        elif kind == MessageKind.RESOURCE_DEAD:
            self.on_resource_dead(message)
        elif kind == MessageKind.POLL_REQUEST:
            self.on_poll_request(message)
        elif kind == MessageKind.POLL_REPLY:
            self.on_poll_reply(message)
        elif kind == MessageKind.RESERVE_ADVERT:
            self.on_reserve_advert(message)
        elif kind == MessageKind.RESERVE_PROBE:
            self.on_reserve_probe(message)
        elif kind == MessageKind.RESERVE_REPLY:
            self.on_reserve_reply(message)
        elif kind == MessageKind.RESERVE_CANCEL:
            self.on_reserve_cancel(message)
        elif kind == MessageKind.AUCTION_INVITE:
            self.on_auction_invite(message)
        elif kind == MessageKind.AUCTION_BID:
            self.on_auction_bid(message)
        elif kind == MessageKind.AUCTION_AWARD:
            self.on_auction_award(message)
        elif kind == MessageKind.VOLUNTEER:
            self.on_volunteer(message)
        elif kind == MessageKind.DEMAND:
            self.on_demand(message)
        elif kind == MessageKind.DEMAND_REPLY:
            self.on_demand_reply(message)
        else:
            # a STATUS_UPDATE (resources report to estimators, which
            # forward), or a kind service_time already refused
            raise ValueError(f"{self.name}: unhandled message {kind}")

    # ------------------------------------------------------------------
    # Fluid traffic mode (modeled status forwards)
    # ------------------------------------------------------------------
    def _fluid_forward_source(self) -> Tuple[str, str, str]:
        source = self._source_cache.get(MessageKind.STATUS_FORWARD)
        if source is None:
            source = (self.component, self.name, str(MessageKind.STATUS_FORWARD))
            self._source_cache[MessageKind.STATUS_FORWARD] = source
        return source

    def fluid_status(self, entries: Dict[int, float]) -> None:
        """Apply one modeled ``STATUS_FORWARD`` (fluid traffic mode).

        Charges the same ``update_proc`` / ``UPDATE_RX`` cell a
        discrete forward's service would, then runs the identical table
        refresh and push-trigger hook — synchronously, without a kernel
        event or queueing.  The deliberate difference from discrete
        mode is the absence of queueing delay: a saturated scheduler's
        forwards no longer back up behind decisions (part of the
        documented fluid tolerance).
        """
        st = self.costs.update_proc
        self.busy_time += st
        if self.ledger is not None and st > 0.0:
            self.ledger.charge(Category.UPDATE_RX, st, self._fluid_forward_source())
        if self.table is not None:
            for rid, load in entries.items():
                if rid in self.table:
                    self.table.record(rid, load, self.sim.now)
        self.after_status_update()

    # ------------------------------------------------------------------
    # Primitives shared by all protocols
    # ------------------------------------------------------------------
    def schedule_local(self, job: Job) -> None:
        """Place ``job`` on the least-loaded local resource (per the
        table's possibly-stale view) and dispatch it."""
        rid, _ = self.table.least_loaded()
        if rid is None:
            # Every local resource is currently declared dead (fault
            # injection): hold the job and retry once something
            # recovers — mirrors the `_redispatch` whole-cluster hold.
            self.sim.schedule(self.redispatch_cap, self.schedule_local, job)
            return
        self.table.bump(rid, +1.0)
        resource = self.resources[rid]
        job.mark_placed(self.scheduler_id)
        self.jobs_dispatched_local += 1
        self._inflight[job.job_id] = (job, rid)
        # The epoch stamp lets the resource reject this dispatch if the
        # job is re-dispatched elsewhere while this message is in flight.
        message = Message(
            MessageKind.JOB_DISPATCH,
            payload={"job": job, "epoch": job.dispatch_epoch},
        )
        if self.tracer is not None:
            self.tracer.dispatch_send(job, self, rid, message)
        self.network.send_from(message, self, resource)

    def transfer_job(self, job: Job, peer: "SchedulerBase") -> None:
        """Hand ``job`` to ``peer`` for execution in its cluster."""
        self.jobs_sent_remote += 1
        message = Message(MessageKind.JOB_TRANSFER, payload={"job": job})
        if self.tracer is not None:
            self.tracer.transfer_send(job, self, message)
        self.send_to_peer(message, peer)

    def send_to_peer(self, message: Message, peer: "SchedulerBase") -> None:
        """Send a protocol message to another scheduler, via the Grid
        middleware when this RMS uses one."""
        if self.use_middleware and self.middleware is not None:
            self.middleware.relay(message, self, peer)
        else:
            self.network.send_from(message, self, peer)

    def pick_peers(self, count: int) -> List["SchedulerBase"]:
        """Randomly select up to ``count`` distinct schedulers from the
        neighborhood set (Table 2–4's "neighborhood set size" bounds the
        candidates; Table 5's ``L_p`` is the count)."""
        if not self.peers or count <= 0:
            return []
        count = min(count, len(self.peers))
        idx = self.rng.choice(len(self.peers), size=count, replace=False)
        return [self.peers[i] for i in idx]

    def local_average_load(self) -> float:
        """Average known load of the local cluster."""
        return self.table.average_load()

    # -- wait-queue management (R-I / Sy-I park jobs for volunteers) ----
    def park_job(self, job: Job) -> None:
        """Hold ``job`` awaiting a remote placement opportunity; a
        timeout forces local dispatch so no job waits forever."""
        job.mark_waiting()
        if self.tracer is not None:
            self.tracer.record(job, "park", entity=self.name)
        self._wait_queue.append(job)
        self.sim.schedule(self.wait_timeout, self._wait_deadline, job)

    def pop_parked(self) -> Optional[Job]:
        """Remove and return the oldest parked job, if any."""
        while self._wait_queue:
            job = self._wait_queue.popleft()
            if job.state == JobState.WAITING:
                return job
        return None

    def peek_parked(self) -> Optional[Job]:
        """The oldest parked job without removing it, if any."""
        while self._wait_queue:
            if self._wait_queue[0].state == JobState.WAITING:
                return self._wait_queue[0]
            self._wait_queue.popleft()
        return None

    @property
    def parked_count(self) -> int:
        """Number of jobs currently parked (lazily pruned)."""
        return sum(1 for j in self._wait_queue if j.state == JobState.WAITING)

    @property
    def inflight_count(self) -> int:
        """Dispatches awaiting completion confirmation (probe tap)."""
        return len(self._inflight)

    def _wait_deadline(self, job: Job) -> None:
        if job.state == JobState.WAITING:
            self.schedule_local(job)

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------
    def on_resource_dead(self, message: Message) -> None:
        """The estimator declared one of this cluster's resources dead.

        The resource is aged out of the status table (placements stop
        targeting it until it reports again) and every job last
        dispatched to it is re-dispatched with capped exponential
        backoff.  Protocols with externally advertised capacity get the
        :meth:`on_cluster_degraded` hook to retract it.
        """
        rid = message.payload["resource_id"]
        self.dead_notices += 1
        if self.table is not None and rid in self.table:
            self.table.mark_dead(rid)
        victims = [
            job for jid, (job, r) in list(self._inflight.items()) if r == rid
        ]
        for job in victims:
            del self._inflight[job.job_id]
            self._schedule_redispatch(job, rid)
        self.on_cluster_degraded(rid)

    def _schedule_redispatch(self, job: Job, rid: int) -> None:
        delay = min(
            self.redispatch_backoff * (2.0 ** min(job.retries, 16)),
            self.redispatch_cap,
        )
        self.sim.schedule(delay, self._redispatch, job, rid)

    def _redispatch(self, job: Job, rid: int) -> None:
        if job.state in (JobState.COMPLETED, JobState.RUNNING):
            # The dispatch we thought lost actually landed (the death
            # was detected between delivery and service start).  A job
            # still running must go back under ``_inflight`` tracking,
            # or a *real* crash of that resource later would strand it
            # — the victim sweep only sees tracked jobs.
            if job.state == JobState.RUNNING:
                self._inflight[job.job_id] = (job, rid)
            return
        if self.table is not None and self.table.alive_count == 0:
            # Whole cluster down: hold the job until something recovers.
            self.sim.schedule(self.redispatch_cap, self._redispatch, job, rid)
            return
        self.ledger.charge(
            Category.FAULTS, self.costs.redispatch_proc, self._src_redispatch
        )
        self.redispatches += 1
        job.mark_requeued()
        if self.tracer is not None:
            self.tracer.record(job, "redispatch", entity=self.name)
        self.schedule_local(job)

    def on_cluster_degraded(self, resource_id: int) -> None:
        """Hook: a local resource was just declared dead.  Protocols
        that advertise local capacity to peers (RESERVE) override this
        to retract what the cluster can no longer honor."""

    # ------------------------------------------------------------------
    # Protocol hooks (subclasses override the ones they use)
    # ------------------------------------------------------------------
    def on_job_submit(self, job: Job) -> None:
        """A job arrived from the workload.  Default: LOCAL-class jobs
        (and everything else, absent a protocol) run locally; REMOTE
        eligibility is delegated to :meth:`on_remote_job`."""
        if job.is_remote_class:
            self.on_remote_job(job)
        else:
            self.schedule_local(job)

    def on_remote_job(self, job: Job) -> None:
        """A REMOTE-class job needs a placement decision.  Default:
        run it locally (no load sharing at all — the degenerate RMS)."""
        self.schedule_local(job)

    def on_job_transfer(self, job: Job) -> None:
        """A job transferred from a remote cluster.  Default: place it
        on the local cluster without further bouncing (at most one
        inter-cluster move per decision, as in Zhou's models)."""
        self.schedule_local(job)

    def after_status_update(self) -> None:
        """Hook invoked after a status update refreshed the table
        (AUCTION and R-I/Sy-I evaluate their push triggers here)."""

    def after_completion(self, job: Job) -> None:
        """Hook invoked after a completion notification was processed."""

    # -- protocol messages with no default behaviour --------------------
    def _unexpected(self, message: Message) -> None:
        raise ValueError(
            f"{self.name} ({type(self).__name__}) cannot handle {message.kind}"
        )

    def on_poll_request(self, message: Message) -> None:
        """Handle a poll from a peer (LOWEST / S-I).  Override."""
        self._unexpected(message)

    def on_poll_reply(self, message: Message) -> None:
        """Handle a poll answer (LOWEST / S-I).  Override."""
        self._unexpected(message)

    def on_reserve_advert(self, message: Message) -> None:
        """Handle a reservation registration (RESERVE).  Override."""
        self._unexpected(message)

    def on_reserve_probe(self, message: Message) -> None:
        """Handle a reservation probe (RESERVE).  Override."""
        self._unexpected(message)

    def on_reserve_reply(self, message: Message) -> None:
        """Handle a reservation probe answer (RESERVE).  Override."""
        self._unexpected(message)

    def on_reserve_cancel(self, message: Message) -> None:
        """Handle a reservation cancellation (RESERVE).  Override."""
        self._unexpected(message)

    def on_auction_invite(self, message: Message) -> None:
        """Handle an auction invitation (AUCTION).  Override."""
        self._unexpected(message)

    def on_auction_bid(self, message: Message) -> None:
        """Handle an auction bid (AUCTION).  Override."""
        self._unexpected(message)

    def on_auction_award(self, message: Message) -> None:
        """Handle an auction award (AUCTION).  Override."""
        self._unexpected(message)

    def on_volunteer(self, message: Message) -> None:
        """Handle a volunteering advert (R-I / Sy-I).  Override."""
        self._unexpected(message)

    def on_demand(self, message: Message) -> None:
        """Handle a job-demand query (R-I / Sy-I).  Override."""
        self._unexpected(message)

    def on_demand_reply(self, message: Message) -> None:
        """Handle a job-demand answer (R-I / Sy-I).  Override."""
        self._unexpected(message)
