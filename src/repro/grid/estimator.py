"""Status estimators: the RMS nodes that aggregate resource state.

Per the paper's Figure-4 caption: "Estimators are the RMS nodes which
receive the status updates from RP resources and distribute to the
scheduling decision makers."  An :class:`Estimator` is a finite-rate
message server that accepts ``STATUS_UPDATE`` messages from the
resources it covers and **distributes** the state to the schedulers
owning those resources' clusters.

Distribution is *batched*: an estimator accumulates the latest load per
resource and, every ``batch_window`` time units, emits one aggregated
``STATUS_FORWARD`` per covered cluster.  Batching is what real
monitoring planes do, and it is the load-bearing mechanism of the
paper's Case 3: with one estimator per cluster a scheduler pays for one
forward per window, but when the estimator plane is scaled up each
cluster's resources are spread over several estimators, so the
scheduler receives (and pays for) several forwards per window — and
trigger-driven RMSs (AUCTION's invitations, RESERVE's advertisements,
Sy-I's volunteering reactions) re-evaluate their push triggers on every
one of them.  That is how "scaling the RMS by the number of status
estimators" inflates ``G(k)`` superlinearly for the hybrid designs
(paper Figs. 4, 6, 7).

Setting ``batch_window = 0`` disables batching (immediate per-update
forwarding) — used by unit tests and the ablation bench.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from ..core.ledger import Category, CostLedger
from ..network.messages import Message, MessageKind, StatusForward
from ..sim.entity import MessageServer
from ..sim.kernel import Simulator
from .costs import CostModel

__all__ = ["Estimator"]


class Estimator(MessageServer):
    """A status-estimation node of the RMS.

    Parameters
    ----------
    sim, name, node:
        Standard entity wiring.
    estimator_id:
        Dense id within the RMS's estimator set.
    ledger, costs:
        Cost accounting (estimator busy time rolls into ``G``).
    batch_window:
        Aggregation period; ``0`` forwards every update immediately.
    """

    component = "estimator"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: int,
        estimator_id: int,
        ledger: CostLedger,
        costs: CostModel,
        batch_window: float = 0.0,
    ) -> None:
        super().__init__(sim, name, node, ledger=ledger)
        if batch_window < 0.0:
            raise ValueError("batch_window must be nonnegative")
        self.estimator_id = estimator_id
        self.costs = costs
        self.batch_window = batch_window
        #: scheduler id -> scheduler entity, wired by the builder
        self.schedulers = {}
        #: forwards emitted (diagnostics)
        self.forwarded = 0
        # pending aggregated state: cluster -> {resource_id: load}
        self._pending: Dict[int, Dict[int, float]] = {}
        self._flush_event = None
        # wired by the builder
        self.network = None

        # Liveness watch (armed only when the run's FaultPlan can crash
        # resources; see start_watch)
        self._watched: Dict[int, int] = {}
        self._last_seen: Dict[int, float] = {}
        self._last_incarnation: Dict[int, int] = {}
        self._notified: Set[int] = set()
        self._declared_at: Dict[int, float] = {}
        self._watch_timeout: Optional[float] = None
        self._watch_interval: Optional[float] = None
        #: dead declarations emitted (diagnostics)
        self.dead_reported = 0
        # recovery work is attributed to the cross-cutting "faults"
        # component (the entity segment still names this estimator), so
        # `repro attrib` shows recovery as its own G column
        self._src_heartbeat = ("faults", name, "heartbeat")

    def service_time(self, message: Message) -> float:
        """Processing cost of one status update."""
        return self.costs.estimator_proc

    def cost_category(self, message: Message) -> str:
        """Estimator busy time is RMS overhead."""
        return Category.ESTIMATOR

    def _deliver_watched(self, message: Message) -> None:
        """Liveness bookkeeping at *arrival*, then normal queueing.

        Installed as the instance's ``deliver`` by :meth:`start_watch`
        (zero overhead on the hot path of watch-free runs).  The watch
        reads receipt timestamps, not service completions: a saturated
        estimator (CENTRAL under churn) would otherwise see every
        healthy report hours late through its own backlog and
        mass-declare false deaths.  Real failure detectors timestamp at
        the transport layer for the same reason; the O(1) bookkeeping
        here is free — detection *work* is charged by the sweep.
        """
        if (
            self._watch_timeout is not None
            and getattr(message, "kind", None) == MessageKind.STATUS_UPDATE
        ):
            rid = message.resource_id
            if rid in self._watched:
                # A report created before the death was declared is not
                # evidence of revival — it was in flight when the node
                # went down.  Ignoring it keeps a genuinely dead
                # resource declared instead of flapping
                # re-clear/re-declare/re-sweep on every late pre-crash
                # update.
                declared = self._declared_at.get(rid)
                sent = message.created_at
                if not (
                    declared is not None and sent is not None and sent <= declared
                ):
                    incarnation = message.incarnation
                    previous = self._last_incarnation.get(rid)
                    if (
                        previous is not None
                        and incarnation > previous
                        and rid not in self._notified
                    ):
                        # The resource rebooted between two reports: its
                        # silence never exceeded the timeout, but
                        # everything it was running is gone.  Declare
                        # the death retroactively so the scheduler
                        # re-dispatches.
                        self._declare_dead(rid)
                    self._last_incarnation[rid] = incarnation
                    self._last_seen[rid] = self.sim.now
                    self._notified.discard(rid)
        super().deliver(message)

    def handle(self, message: Message) -> None:
        """Absorb the update; forward now (unbatched) or at the flush."""
        if message.kind != MessageKind.STATUS_UPDATE:
            raise ValueError(f"estimator {self.name} got unexpected {message.kind}")
        rid = message.resource_id
        if self._watch_timeout is not None:
            if rid in self._watched:
                # Drop pre-declaration reports for state too — a stale
                # load snapshot must not revive the dead entry in the
                # scheduler's table and draw placements onto a dead node.
                declared = self._declared_at.get(rid)
                sent = message.created_at
                if declared is not None and sent is not None and sent <= declared:
                    return
        cluster_id = message.cluster_id
        if cluster_id not in self.schedulers:
            return  # estimator covers no resources of that cluster
        if self.batch_window <= 0.0:
            self._forward(cluster_id, {rid: message.load})
            return
        bucket = self._pending.setdefault(cluster_id, {})
        bucket[rid] = message.load
        if self._flush_event is None:
            self._flush_event = self.sim.schedule(self.batch_window, self._flush)

    def _flush(self) -> None:
        self._flush_event = None
        pending, self._pending = self._pending, {}
        for cluster_id, entries in pending.items():
            self._forward(cluster_id, entries)

    def _forward(self, cluster_id: int, entries: Dict[int, float]) -> None:
        # Takes ownership of `entries` — both call sites hand over a
        # dict they never touch again (handle() builds a fresh literal,
        # _flush() swaps the pending map out first), so the forward
        # message carries it without a defensive copy.  This is the
        # status plane's hottest allocation site: one forward per
        # covered cluster per batch window, usually to a co-located
        # scheduler.
        scheduler = self.schedulers.get(cluster_id)
        if scheduler is None:  # pragma: no cover - guarded in handle()
            return
        fwd = StatusForward(cluster_id, entries)
        self.forwarded += 1
        if scheduler.node == self.node:
            # Co-located (base configuration): local handoff, no network.
            fwd.sender = self
            fwd.created_at = self.sim.now
            scheduler.deliver(fwd)
        else:
            self.network.send_from(fwd, self, scheduler)

    def heartbeat_gap(self) -> float:
        """Widest current heartbeat silence over watched resources.

        How long ago the quietest still-undeclared watched resource was
        last heard from — the live fault-detection-latency signal the
        probe layer samples.  ``nan`` when no watch is armed (fault-free
        runs) or every watched resource is already declared dead.
        """
        if self._watch_timeout is None or not self._watched:
            return math.nan
        now = self.sim.now
        gap = math.nan
        for rid, seen in self._last_seen.items():
            if rid in self._notified:
                continue
            g = now - seen
            if not (g <= gap):  # first value or larger
                gap = g
        return gap

    # ------------------------------------------------------------------
    # Liveness watch (failure detection)
    # ------------------------------------------------------------------
    def start_watch(
        self,
        resources: Dict[int, int],
        timeout: float,
        interval: float,
        phase: float = 0.0,
    ) -> None:
        """Watch ``resources`` (``resource_id -> cluster_id``) for
        silence exceeding ``timeout``.

        A periodic sweep (period ``interval``, offset ``phase``) checks
        when each watched resource was last heard from; one that stayed
        silent beyond ``timeout`` is declared dead exactly once — a
        reliable ``RESOURCE_DEAD`` goes to its cluster's scheduler — and
        any later update from it clears the declaration.  ``timeout``
        must exceed the resources' keepalive span, or healthy quiet
        resources get declared dead.

        Every sweep charges ``heartbeat_proc`` per watched resource to
        ``g.faults``: failure detection is RMS overhead the efficiency
        model must see.
        """
        if timeout <= 0.0 or interval <= 0.0:
            raise ValueError("watch timeout and interval must be positive")
        self._watched = dict(resources)
        # Baseline: wiring time counts as "heard from" so a resource is
        # never declared dead before its first report was even due.
        self._last_seen = {rid: self.sim.now for rid in self._watched}
        self._last_incarnation = {}
        self._notified = set()
        self._declared_at = {}
        self._watch_timeout = timeout
        self._watch_interval = interval
        # Shadow the class method on this instance only: watch-free
        # runs keep the base deliver() with no extra call layer.
        self.deliver = self._deliver_watched
        self.sim.schedule(phase % interval, self._watch_sweep)

    def _watch_sweep(self) -> None:
        if self._watch_timeout is None or not self._watched:
            return
        self.ledger.charge(
            Category.FAULTS,
            self.costs.heartbeat_proc * len(self._watched),
            self._src_heartbeat,
        )
        now = self.sim.now
        for rid in sorted(self._watched):
            if rid in self._notified:
                continue
            if now - self._last_seen[rid] > self._watch_timeout:
                self._declare_dead(rid)
        self.sim.schedule(self._watch_interval, self._watch_sweep)

    def _declare_dead(self, rid: int) -> None:
        """Declare ``rid`` dead once: reliable ``RESOURCE_DEAD`` to its
        cluster's scheduler.  Reached from the silence sweep and from
        incarnation jumps (reboot faster than the timeout)."""
        self._notified.add(rid)
        self._declared_at[rid] = self.sim.now
        self.dead_reported += 1
        scheduler = self.schedulers.get(self._watched[rid])
        if scheduler is not None and self.network is not None:
            self.network.send_from(
                Message(
                    MessageKind.RESOURCE_DEAD,
                    payload={
                        "resource_id": rid,
                        "cluster_id": self._watched[rid],
                    },
                ),
                self,
                scheduler,
            )
