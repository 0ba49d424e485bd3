"""The fluid status plane: bulk periodic traffic as closed-form rates.

Discrete mode simulates every status report, keepalive, and heartbeat
sweep as kernel events: O(k) events per update interval, which is what
caps the measurable scale at a few thousand resources.  In fluid mode
the :class:`FluidStatusPlane` owns the whole status/keepalive/heartbeat
plane with **one** periodic flush event, and charges the
:class:`~repro.core.ledger.CostLedger` the same cells a discrete run
would — per ``(component, entity, message-class)``:

* **change-driven status updates** are *exact*: resources call
  :meth:`on_load_change` (O(1), no event) on every load transition; at
  each flush the plane resolves the dirty set against the discrete
  suppression model (at most one update per resource per
  ``update_interval``, suppressed while the load is unchanged) and
  charges ``estimator_proc`` per modeled update against the covering
  estimator under the ``status_update`` message class;
* **keepalives** are *exact, without events*: the discrete keepalive
  chain is deterministic (fire at ``last_sent + 3 tau``, re-anchoring
  on every real send), so the plane keeps a flush-indexed bucket queue
  of due times — O(1) amortized per keepalive occurrence, zero kernel
  events — and replays the same send instants quantized to the flush
  grid;
* **status forwards** (change-driven and keepalive alike) are applied
  to the schedulers *synchronously* via
  :meth:`~repro.grid.scheduler.SchedulerBase.fluid_status` — identical
  table refresh, identical ``update_proc`` charge, identical
  push-trigger hook (``after_status_update``), so Case 3's
  G-inflation mechanism survives the modeling;
* **heartbeat sweeps** become a rate (``heartbeat_proc x watched x
  W / interval`` per flush) and dead declarations become *scheduled
  discrete events* at crash + timeout — fault transitions stay
  event-driven (real reliable ``RESOURCE_DEAD`` messages), exactly
  like job dispatch and completion.

Crash/recovery re-derives every rate: a failed resource leaves the
alive/quiet populations (its keepalive and heartbeat-silence flow
stops), and a repaired one re-enters with a forced unconditional
report at the next flush, reviving its status-table entries the way
the discrete first post-repair report does.

With an aggregator tree (``FluidPlan.aggregator_fanout >= 2``), leaf
batches merge up a fan-in hierarchy (``estimator_proc`` per child
batch, charged to per-aggregator entities) and only the root forwards
consolidated per-cluster state — bounding scheduler-side update work
at extreme estimator counts.

Everything here is deterministic and consumes no RNG.  Send,
arrival, and handle instants are reconstructed exactly (keepalive
chains, per-pair transit, estimator-server serialization); the
residual fluid-vs-discrete tolerance comes from *delivery* timing —
forwards reach scheduler tables at flush boundaries instead of their
exact discrete instants, so a dispatch decision near a boundary can
see slightly fresher state.  The per-resource report *phases* drawn
by the builder (identically in both modes) anchor each resource's
keepalive chain, so the fluid keepalive instants stagger exactly like
the discrete ones instead of synchronizing on the flush grid.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from ..core.ledger import Category
from ..network.messages import DEFAULT_SIZES, Message, MessageKind
from .plan import FluidPlan
from .tree import AggregatorTree

__all__ = ["FluidStatusPlane"]


class FluidStatusPlane:
    """Rate-based model of the status/keepalive/heartbeat plane.

    Built by the system builder when ``config.fluid.is_fluid``; wired
    as every resource's ``fluid_sink`` in place of discrete reporting.
    """

    def __init__(
        self,
        sim,
        config,
        ledger,
        network,
        resources,
        estimators,
        grid_map,
        phases=None,
    ) -> None:
        plan: FluidPlan = config.fluid
        if not plan.is_fluid:
            raise ValueError("FluidStatusPlane requires a fluid-mode plan")
        self.sim = sim
        self.ledger = ledger
        self.network = network
        self.costs = config.costs
        self.plan = plan
        self.resources = resources
        self.estimators = estimators
        self.update_interval = float(config.update_interval)
        window = plan.effective_flush_interval(config.effective_batch_window)
        if window <= 0.0:
            window = 0.5 * self.update_interval
        self.flush_interval = window
        #: resources' soft-state refresh span (max_silence=3 intervals)
        self.keepalive_span = 3.0 * self.update_interval

        n = len(resources)
        m = len(estimators)
        self._est_of = [grid_map.estimator_of_resource[r] for r in range(n)]
        self._cluster_of = [grid_map.cluster_of_resource[r] for r in range(n)]
        self._cur_load = [0] * n
        self._last_load: List[Optional[int]] = [None] * n
        self._last_sent = [-math.inf] * n
        self._failed = [False] * n
        #: per-resource first-report instants — the same phase draws the
        #: discrete builder staggers reports with, so the keepalive
        #: chains anchor at identical times in both modes
        self._phase = (
            [float(p) for p in phases] if phases is not None else [0.0] * n
        )
        self._reported_once = [False] * n
        # Every resource starts dirty with no baseline, so the first
        # flush emits the same initial load-0 report wave a discrete
        # run sends during its first update interval.
        self._dirty: List[Set[int]] = [set() for _ in range(m)]
        for rid in range(n):
            self._dirty[self._est_of[rid]].add(rid)
        #: live total of all resource loads (O(1) probe tap)
        self.total_load = 0
        # Keepalive bucket queue: flush-index -> [(rid, anchor)].  The
        # discrete chain fires at last_send + 3*tau, re-anchoring on
        # every send; entries whose anchor no longer matches the
        # resource's last send are stale and dropped at pop time, so
        # each occurrence costs O(1) with no kernel event.
        self._ka_buckets: Dict[int, List[Tuple[int, float]]] = {}
        self._ka_keys: List[int] = []  # min-heap of bucket indices
        self._flush_index = 0
        # Discrete-batcher emulation (flat routing): per-estimator open
        # batch — pending entries per cluster and the arrival-aligned
        # flush due time.
        self._batch_pending: List[Dict[int, Dict[int, float]]] = [
            {} for _ in range(m)
        ]
        self._batch_due: List[Optional[float]] = [None] * m
        # The discrete batch timer starts at the first *handle* instant,
        # not the send instant: an update spends a fixed per-pair
        # transit delay in the network and then serializes through the
        # estimator's message server (constant ``estimator_proc``
        # service each).  Both are deterministic, so the batcher replay
        # reconstructs handle instants exactly: per-resource transit is
        # precomputed here, and ``_busy_until`` carries the server's
        # occupancy across flushes.
        size = DEFAULT_SIZES.get(MessageKind.STATUS_UPDATE, 1.0)
        router = network.router
        scale = network.delay_scale
        self._transit = [0.0] * n
        for rid in range(n):
            src = resources[rid].node
            dst = estimators[self._est_of[rid]].node
            if src != dst:
                # Query estimator -> resource: transit is symmetric on
                # the undirected topology, and estimator sites are
                # scheduler sites whose routing tables the builder
                # donates from the grid mapper — so this precompute
                # reads one triple per resource out of those arrays
                # instead of running O(k) Dijkstra searches.
                latency, _, factor = router.path_info(dst, src)
                self._transit[rid] = scale * (latency + size * factor)
        self._busy_until = [-math.inf] * m
        self._src_update = [
            ("estimator", est.name, str(MessageKind.STATUS_UPDATE))
            for est in estimators
        ]
        self._src_heartbeat = [
            ("faults", est.name, "heartbeat") for est in estimators
        ]
        self._agg_src: Dict[Tuple[int, int], Tuple[str, str, str]] = {}
        self.tree: Optional[AggregatorTree] = (
            AggregatorTree(m, plan.aggregator_fanout)
            if plan.has_tree and m > 1
            else None
        )
        # cluster -> scheduler (tree-mode root forwards)
        self._sched_of: Dict[int, object] = {}
        for est in estimators:
            for c, s in est.schedulers.items():
                self._sched_of.setdefault(c, s)

        # Liveness watch (armed only under a fault plan with crashes)
        self._watch_timeout: Optional[float] = None
        self._hb_interval: Optional[float] = None
        self._watched = [0] * m
        self._watch_cluster: Dict[int, int] = {}
        self._crash_seq: Dict[int, int] = {}
        self._pending_crash: Dict[int, float] = {}

        #: diagnostics / bench counters
        self.flushes = 0
        self.modeled_updates = 0
        self.modeled_keepalives = 0
        self.modeled_forwards = 0
        self.declared_dead = 0
        self._occupied_last = 0
        self._flush_event = None

    # ------------------------------------------------------------------
    # Hooks (called synchronously by resources — no kernel events)
    # ------------------------------------------------------------------
    def on_load_change(self, resource) -> None:
        """A resource's load transitioned: O(1) dirty-set bookkeeping."""
        rid = resource.resource_id
        load = resource.load
        self.total_load += load - self._cur_load[rid]
        self._cur_load[rid] = load
        self._dirty[self._est_of[rid]].add(rid)

    def on_fail(self, resource) -> None:
        """A resource crashed: it goes silent and leaves every rate.

        Keepalive/heartbeat flows shrink immediately; if a liveness
        watch is armed, the dead declaration is scheduled as a discrete
        event at crash + timeout (the silence the discrete sweep would
        take to notice).
        """
        rid = resource.resource_id
        self.total_load -= self._cur_load[rid]
        self._cur_load[rid] = 0
        self._failed[rid] = True
        if self._watch_timeout is not None and rid in self._watch_cluster:
            seq = self._crash_seq.get(rid, 0) + 1
            self._crash_seq[rid] = seq
            self._pending_crash[rid] = self.sim.now
            self.sim.schedule(self._watch_timeout, self._declare_dead, rid, seq)

    def on_repair(self, resource) -> None:
        """A resource recovered: rates re-derive and it re-announces.

        The forced (baseline-free) entry in the dirty set makes the
        next flush emit an unconditional report — the fluid analogue of
        the discrete first post-repair report that revives aged-out
        status-table entries.
        """
        rid = resource.resource_id
        self._failed[rid] = False
        self.total_load += resource.load - self._cur_load[rid]
        self._cur_load[rid] = resource.load
        self._last_load[rid] = None
        self._last_sent[rid] = -math.inf
        self._dirty[self._est_of[rid]].add(rid)

    # ------------------------------------------------------------------
    # Liveness watch
    # ------------------------------------------------------------------
    def start_watch(
        self, watched: Dict[int, Dict[int, int]], timeout: float, interval: float
    ) -> None:
        """Arm failure detection over ``{est_index: {rid: cluster}}``.

        Detection *work* becomes a rate charge per flush; detection
        *decisions* (dead declarations) stay discrete events.
        """
        if timeout <= 0.0 or interval <= 0.0:
            raise ValueError("watch timeout and interval must be positive")
        self._watch_timeout = timeout
        self._hb_interval = interval
        for e, rids in watched.items():
            self._watched[e] = len(rids)
            self._watch_cluster.update(rids)

    def _declare_dead(self, rid: int, seq: int) -> None:
        if self._crash_seq.get(rid) != seq:
            return  # superseded by a newer crash/repair cycle
        self._pending_crash.pop(rid, None)
        e = self._est_of[rid]
        est = self.estimators[e]
        cluster = self._watch_cluster[rid]
        est.dead_reported += 1
        self.declared_dead += 1
        scheduler = est.schedulers.get(cluster)
        if scheduler is not None and est.network is not None:
            est.network.send_from(
                Message(
                    MessageKind.RESOURCE_DEAD,
                    payload={"resource_id": rid, "cluster_id": cluster},
                ),
                est,
                scheduler,
            )
        if not self._failed[rid]:
            # Rebooted inside the timeout window — the discrete
            # detector's incarnation jump: the declaration still lands
            # (the jobs are gone) and the next flush re-announces
            # liveness, reviving the table entry.
            self._last_load[rid] = None
            self._last_sent[rid] = -math.inf
            self._dirty[e].add(rid)

    # ------------------------------------------------------------------
    # The flush: one event for the whole plane
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule the periodic flush (self-rescheduling)."""
        self._flush_event = self.sim.schedule(self.flush_interval, self._flush)

    def _push_keepalive(self, rid: int, anchor: float) -> None:
        """Arm the keepalive chain: due at ``anchor + 3 tau``.

        ``anchor`` is the exact send instant (discrete semantics), not
        the quantized flush time, so chains never drift off the
        discrete stagger.  Stale entries (a newer send re-anchored the
        chain) are dropped lazily at pop time.
        """
        due = anchor + self.keepalive_span
        idx = int(math.ceil(due / self.flush_interval - 1e-9))
        bucket = self._ka_buckets.get(idx)
        if bucket is None:
            bucket = self._ka_buckets[idx] = []
            heapq.heappush(self._ka_keys, idx)
        bucket.append((rid, anchor))

    def _flush(self) -> None:
        self.flushes += 1
        self._flush_index += 1
        now = self.sim.now
        tau = self.update_interval
        window = self.flush_interval
        n_est = len(self.estimators)
        # Per-estimator modeled update emissions this flush, with the
        # *exact* send instant each one would carry in discrete mode —
        # keepalive fire times and rate-limit clearances are known
        # exactly; fresh load changes are only known to lie inside the
        # elapsed flush window and anchor at its start.
        emissions: List[List[Tuple[float, int, int]]] = [[] for _ in range(n_est)]

        # 1. Keepalives due by now: exact replay of the discrete chain.
        # A keepalive is an unconditional refresh (it re-baselines the
        # load), so it also satisfies any pending dirty mark.
        while self._ka_keys and self._ka_keys[0] <= self._flush_index:
            idx = heapq.heappop(self._ka_keys)
            for rid, anchor in self._ka_buckets.pop(idx, ()):
                if self._last_sent[rid] != anchor:
                    continue  # re-anchored by a newer send
                if self._failed[rid]:
                    continue  # crashed mid-silence: chain dies until repair
                load = self._cur_load[rid]
                fire = anchor + self.keepalive_span
                self._last_load[rid] = load
                self._last_sent[rid] = fire
                self._push_keepalive(rid, fire)
                e = self._est_of[rid]
                self._dirty[e].discard(rid)
                emissions[e].append((fire, rid, load))
                self.modeled_keepalives += 1

        # 2. Change-driven updates: the dirty sets resolved against the
        # suppression model (exact counts — suppression and the one-per-
        # tau rate limit mirror Resource.start_reporting).
        for e, dirty in enumerate(self._dirty):
            if not dirty:
                continue
            deferred: List[int] = []
            for rid in sorted(dirty):
                if self._failed[rid]:
                    continue  # crashed: silent, drops out entirely
                load = self._cur_load[rid]
                last = self._last_load[rid]
                if last is not None and load == last:
                    continue  # suppressed: no significant change
                if now - self._last_sent[rid] < tau - 1e-9:
                    deferred.append(rid)  # rate-limited, stays pending
                    continue
                if not self._reported_once[rid]:
                    # First report ever: anchor at the drawn phase, the
                    # instant the discrete initial report goes out.
                    # (Post-repair re-announcements anchor at the flush:
                    # discrete restarts reporting with zero phase.)
                    self._reported_once[rid] = True
                    sent = self._phase[rid]
                else:
                    # A rid deferred by the rate limit sends the moment
                    # the limit clears (last_sent + tau, exact); a fresh
                    # change sent somewhere inside the elapsed window.
                    # Fresh sends are dithered by the resource's report
                    # phase instead of snapping to the flush grid:
                    # grid-aligned anchors would synchronize every
                    # keepalive chain they re-anchor, over-merging
                    # later bursts into too few forwards.
                    lim = self._last_sent[rid] + tau
                    if lim > now - window:
                        sent = lim
                    else:
                        sent = now - window + (self._phase[rid] % window)
                self._last_load[rid] = load
                self._last_sent[rid] = sent
                self._push_keepalive(rid, sent)
                emissions[e].append((sent, rid, load))
            dirty.clear()
            dirty.update(deferred)

        # 3. Estimator-side charges (one modeled STATUS_UPDATE service
        # per emission) and the heartbeat-sweep rate.
        occupied: List[int] = []
        for e, est in enumerate(self.estimators):
            n_msgs = len(emissions[e])
            if n_msgs:
                occupied.append(e)
                charge = self.costs.estimator_proc * n_msgs
                if charge > 0.0:
                    self.ledger.charge(Category.ESTIMATOR, charge, self._src_update[e])
                est.busy_time += charge
                self.network.record_modeled(
                    MessageKind.STATUS_UPDATE, float(n_msgs), float(n_msgs)
                )
                self.modeled_updates += n_msgs
            if self._watch_timeout is not None and self._watched[e]:
                hb = (
                    self.costs.heartbeat_proc
                    * self._watched[e]
                    * (self.flush_interval / self._hb_interval)
                )
                if hb > 0.0:
                    self.ledger.charge(Category.FAULTS, hb, self._src_heartbeat[e])

        # 4. Forward routing.  Flat mode replays the discrete batcher
        # exactly: an estimator's batch opens at its first buffered
        # update and flushes one window later (arrival-aligned, NOT
        # flush-grid-aligned — grid alignment splits update bursts that
        # straddle a grid boundary and overcounts forwards).  Tree mode
        # (fluid-only, no discrete counterpart) merges per flush.
        if self.tree is None:
            for e in occupied:
                # Reconstruct the *handle* instant of each update — send
                # plus fixed per-pair transit, serialized through the
                # estimator's message server — because that is what the
                # discrete batch timer aligns to.  Bursts spread by one
                # service time per message, which is what splits batches
                # across window boundaries; batching on raw send
                # instants over-merges and undercounts forwards.
                arrivals = sorted(
                    (t + self._transit[rid], rid, load)
                    for t, rid, load in emissions[e]
                )
                st = self.costs.estimator_proc
                busy = self._busy_until[e]
                due = self._batch_due[e]
                pend = self._batch_pending[e]
                for arr, rid, load in arrivals:
                    busy = (arr if arr > busy else busy) + st
                    if due is not None and busy >= due - 1e-9:
                        self._close_batch(e)
                        pend = self._batch_pending[e]  # closed batch swaps the dict
                        due = None
                    if due is None:
                        due = busy + window
                    pend.setdefault(self._cluster_of[rid], {})[rid] = float(load)
                self._busy_until[e] = busy
                self._batch_due[e] = due
            for e in range(n_est):
                due = self._batch_due[e]
                if due is not None and due <= now + 1e-9:
                    self._close_batch(e)
                    self._batch_due[e] = None
        else:
            emitted_by_est: List[Optional[Dict[int, Dict[int, float]]]] = [
                None
            ] * n_est
            for e in occupied:
                emitted: Dict[int, Dict[int, float]] = {}
                for _, rid, load in sorted(emissions[e]):
                    emitted.setdefault(self._cluster_of[rid], {})[rid] = float(load)
                emitted_by_est[e] = emitted
            self._route_tree(occupied, emitted_by_est)
        self._occupied_last = len(occupied)
        self._flush_event = self.sim.schedule(self.flush_interval, self._flush)

    def _close_batch(self, e: int) -> None:
        """Emit the estimator's open batch: one forward per cluster."""
        pend = self._batch_pending[e]
        if not pend:
            return
        self._batch_pending[e] = {}
        est = self.estimators[e]
        for c in sorted(pend):
            scheduler = est.schedulers.get(c)
            if scheduler is None:
                continue  # estimator covers no resources of that cluster
            entries = pend[c]
            est.forwarded += 1
            self.modeled_forwards += 1
            scheduler.fluid_status(entries)
            if scheduler.node != est.node:
                self.network.record_modeled(
                    MessageKind.STATUS_FORWARD,
                    1.0,
                    max(1.0, float(len(entries))),
                )

    def _route_tree(
        self,
        occupied: List[int],
        emitted_by_est: List[Optional[Dict[int, Dict[int, float]]]],
    ) -> None:
        """Merge leaf batches up the fan-in tree, forward from the root."""
        merged: Dict[int, Dict[int, float]] = {}
        for e in occupied:
            self.estimators[e].forwarded += 1
            for c, entries in emitted_by_est[e].items():
                merged.setdefault(c, {}).update(entries)
        for level, counts in self.tree.merge_plan(occupied):
            for idx in sorted(counts):
                src = self._agg_src.get((level, idx))
                if src is None:
                    src = (
                        "estimator",
                        f"agg{level}.{idx}",
                        str(MessageKind.STATUS_FORWARD),
                    )
                    self._agg_src[(level, idx)] = src
                charge = self.costs.estimator_proc * counts[idx]
                if charge > 0.0:
                    self.ledger.charge(Category.ESTIMATOR, charge, src)
        for c in sorted(merged):
            scheduler = self._sched_of.get(c)
            if scheduler is None:
                continue
            self.modeled_forwards += 1
            scheduler.fluid_status(merged[c])

    # ------------------------------------------------------------------
    # Probe taps (all O(levels) or O(estimators), never O(resources))
    # ------------------------------------------------------------------
    @property
    def aggregate_depth(self) -> int:
        """Aggregation levels above the leaf estimators (0 = flat)."""
        return self.tree.depth if self.tree is not None else 0

    def aggregate_occupancy(self) -> float:
        """Occupied-leaf fraction at the last flush."""
        if self.tree is not None:
            return self.tree.occupancy_fraction()
        return self._occupied_last / max(1, len(self.estimators))

    @property
    def pending_updates(self) -> int:
        """Resources with unflushed load changes (O(estimators) sum)."""
        return sum(len(d) for d in self._dirty)

    def heartbeat_gap(self) -> float:
        """Widest undeclared crash silence (``nan`` without a watch).

        The discrete probe reports the quietest *healthy* resource's
        silence (an O(watched) sweep); the fluid plane knows crash
        instants exactly, so it reports the widest pending-declaration
        silence instead — 0.0 when nothing is pending.
        """
        if self._watch_timeout is None:
            return math.nan
        if not self._pending_crash:
            return 0.0
        return self.sim.now - min(self._pending_crash.values())

    def stats(self) -> Dict[str, float]:
        """Flush/flow counters (bench + diagnostics)."""
        return {
            "flushes": self.flushes,
            "modeled_updates": self.modeled_updates,
            "modeled_keepalives": self.modeled_keepalives,
            "modeled_forwards": self.modeled_forwards,
            "declared_dead": self.declared_dead,
            "aggregate_depth": self.aggregate_depth,
            "aggregate_occupancy": self.aggregate_occupancy(),
        }
