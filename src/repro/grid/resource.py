"""Resources: the managee's workers.

A :class:`Resource` is a homogeneous single-server job queue (the paper
fixes partition size at 1 and assumes homogeneous resources with finite
processing capacity).  Its responsibilities:

* serve dispatched jobs FIFO at ``service_rate`` (Case 2's scaling
  variable), charging per-job control overhead to ``H``;
* credit the service demand of *successful* completions to ``F``;
* notify the cluster's scheduler of completions;
* report its load to its status estimator — periodically, with the
  significance-based **suppression optimization** all periodic schemes
  share ("if loading conditions ... did not change significantly from
  the previous update, an update might be suppressed").

**Load metric.**  A resource's load is its number of jobs in system
(queue + in service).  Cluster-level "average load" is the mean over
member resources, so Table 1's threshold ``T_l = 0.5`` reads naturally:
a cluster is lightly loaded when fewer than half its resources are
occupied, and a single resource is "idle" at load 0 / "above threshold"
at load >= 1.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..core.ledger import Category, CostLedger
from ..network.messages import Message, MessageKind, StatusUpdate
from ..sim.entity import Entity
from ..sim.kernel import Simulator
from ..sim.monitor import TimeWeighted
from .costs import CostModel
from .jobs import Job, JobState

__all__ = ["Resource"]


class Resource(Entity):
    """A single-server job execution resource.

    Parameters
    ----------
    sim, name, node:
        Standard entity wiring.
    resource_id:
        Dense id within the resource pool.
    cluster_id:
        Owning cluster (scheduler id).
    service_rate:
        Demand units executed per time unit (Case 2 scales this).
    ledger:
        The run's cost ledger.
    costs:
        Processing-cost model (for ``H`` charges).
    """

    #: causal tracer (None = tracing off; every hook site is one
    #: ``is None`` test, same discipline as ``completion_listener``)
    tracer = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: int,
        resource_id: int,
        cluster_id: int,
        service_rate: float,
        ledger: CostLedger,
        costs: CostModel,
        n_processors: int = 1,
        speedup_exponent: float = 0.8,
    ) -> None:
        super().__init__(sim, name, node)
        if service_rate <= 0.0:
            raise ValueError("service_rate must be positive")
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        if not (0.0 < speedup_exponent <= 1.0):
            raise ValueError("speedup_exponent must be in (0, 1]")
        self.resource_id = resource_id
        self.cluster_id = cluster_id
        self.service_rate = service_rate
        self.ledger = ledger
        self.costs = costs
        #: processors available for parallel (moldable) jobs.  The paper
        #: fixes partition size at 1, making every resource a single
        #: server; >1 enables the Cirne-Berman moldable extension.
        self.n_processors = n_processors
        #: moldable speedup model: a p-processor partition runs
        #: ``p**speedup_exponent`` times faster (sublinear, Amdahl-ish).
        self.speedup_exponent = speedup_exponent

        # Attribution source tags, built once (the charge sites below
        # run per job): job control/staging are tied to the dispatch and
        # transfer messages; useful work is the execution itself.
        self._src_job_control = ("resource", name, MessageKind.JOB_DISPATCH)
        self._src_data_mgmt = ("resource", name, MessageKind.JOB_TRANSFER)
        self._src_useful = ("resource", name, "execution")

        #: (job, dispatch epoch at enqueue) — the epoch lets the head
        #: pop discard dispatches that went stale while queued (the job
        #: was re-dispatched elsewhere after this resource crashed)
        self._queue: Deque[Tuple[Job, int]] = deque()
        self._running: set = set()
        self._finish_events: Dict[Job, object] = {}
        self._busy_procs = 0
        self.online = True
        #: crashed (fault injection); distinct from a mere `online`
        #: toggle — a failed resource loses its work and goes silent
        self.failed = False
        self._failed_interval: Optional[float] = None
        #: boot epoch, bumped on every repair and carried in status
        #: updates — lets the estimator detect a crash-and-reboot that
        #: completed inside the heartbeat-timeout window (the silence
        #: never exceeded the timeout, but the jobs are gone anyway)
        self.incarnation = 0
        #: lifetime counters
        self.jobs_received = 0
        self.jobs_completed = 0
        self.jobs_successful = 0
        #: jobs lost to crashes at this resource
        self.jobs_killed = 0
        #: dispatches discarded because the job had moved on (stale epoch)
        self.stale_dispatches = 0
        #: time-weighted utilization (1 while serving)
        self.util_stat = TimeWeighted(f"{name}.util", time=sim.now)

        # Wiring done by the builder after construction:
        #: the network used for completion notifications / status updates
        self.network = None
        #: the scheduler owning this resource's cluster
        self.scheduler = None
        #: the estimator receiving this resource's status updates
        self.estimator = None
        #: fluid traffic mode: the FluidStatusPlane absorbing load
        #: transitions in place of discrete reporting (None = discrete)
        self.fluid_sink = None
        #: optional synchronous hook invoked on every job completion
        #: (dependency coordination, test instrumentation)
        self.completion_listener = None

        # Status reporting state (event-driven; see start_reporting)
        self._report_interval: Optional[float] = None
        self._last_reported_load: Optional[int] = None
        self._last_sent_time = -float("inf")
        self._send_event = None
        self._keepalive_event = None
        self._max_silence: Optional[int] = 3

    # ------------------------------------------------------------------
    # Load metric
    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Jobs in system: queued plus in service."""
        return len(self._queue) + len(self._running)

    @property
    def idle(self) -> bool:
        """Whether the resource has no work at all."""
        return self.load == 0

    def running_jobs(self):
        """Jobs currently in service, in deterministic (id) order.

        Probe tap: iteration order must not depend on set layout, or a
        sampling pass would fold hash-seed noise into its gauges.
        """
        return sorted(self._running, key=lambda j: j.job_id)

    @property
    def free_processors(self) -> int:
        """Processors not currently assigned to a running partition."""
        return self.n_processors - self._busy_procs

    # ------------------------------------------------------------------
    # Job service
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """Accept a ``JOB_DISPATCH``; anything else is a protocol error."""
        if message.kind != MessageKind.JOB_DISPATCH:
            raise ValueError(f"resource {self.name} got unexpected {message.kind}")
        self.accept_job(message.payload["job"], message.payload.get("epoch"))

    def accept_job(self, job: Job, epoch: Optional[int] = None) -> None:
        """Enqueue ``job`` for execution (entry point for dispatches).

        ``epoch`` is the job's dispatch epoch as stamped by the sender;
        ``None`` (direct calls, legacy payloads) means "current".  A
        dispatch whose epoch no longer matches the job's is stale — the
        scheduler re-dispatched the job elsewhere after this resource
        crashed — and is discarded.
        """
        if epoch is None:
            epoch = job.dispatch_epoch
        if self.failed:
            # The node is down: the dispatch is lost with everything on
            # it.  The scheduler recovers via the heartbeat-timeout path.
            self.jobs_killed += 1
            if epoch == job.dispatch_epoch and job.state == JobState.PLACED:
                job.mark_failed()
                if self.tracer is not None:
                    self.tracer.record(job, "failed", entity=self.name)
            return
        self.jobs_received += 1
        # Per-job control overhead at the RP (paper: H(k); kept small).
        self.ledger.charge(Category.JOB_CONTROL, self.costs.job_control, self._src_job_control)
        if epoch != job.dispatch_epoch:
            self.stale_dispatches += 1
            return
        if job.transfers > 0:
            # Transferred jobs incur data staging at the receiving side.
            self.ledger.charge(Category.DATA_MGMT, self.costs.data_mgmt, self._src_data_mgmt)
        self._queue.append((job, epoch))
        if self.tracer is not None:
            self.tracer.record(job, "resource_accept", entity=self.name)
        self._maybe_start()
        self._load_changed()

    def _partition_of(self, job: Job) -> int:
        """Processors the job's partition occupies here (clamped)."""
        return min(max(1, job.spec.partition_size), self.n_processors)

    def _maybe_start(self) -> None:
        # FIFO with head-of-line blocking: the queue head starts as soon
        # as its partition fits (the paper's single-processor case
        # degenerates to the classic single-server queue).
        while self.online and self._queue:
            head, epoch = self._queue[0]
            if epoch != head.dispatch_epoch:
                # Went stale while queued (crash here + re-dispatch
                # elsewhere); drop without starting.
                self._queue.popleft()
                self.stale_dispatches += 1
                continue
            p = self._partition_of(head)
            if p > self.free_processors:
                return
            self._queue.popleft()
            self._running.add(head)
            self._busy_procs += p
            head.mark_running(self.sim.now)
            if self.tracer is not None:
                self.tracer.record(head, "service_begin", entity=self.name)
            self.util_stat.update(self.sim.now, self._busy_procs / self.n_processors)
            speedup = p ** self.speedup_exponent
            service = head.spec.execution_time / (self.service_rate * speedup)
            self._finish_events[head] = self.sim.schedule(service, self._finish, head)

    def _finish(self, job: Job) -> None:
        assert job in self._running
        self._finish_events.pop(job, None)
        self._running.discard(job)
        self._busy_procs -= self._partition_of(job)
        self.util_stat.update(self.sim.now, self._busy_procs / self.n_processors)
        job.mark_completed(self.sim.now)
        self.jobs_completed += 1
        if job.successful:
            self.jobs_successful += 1
            # Useful work = the service demand delivered to the client.
            self.ledger.charge(Category.USEFUL, job.spec.execution_time, self._src_useful)
        if self.network is not None and self.scheduler is not None:
            message = Message(MessageKind.JOB_COMPLETE, payload={"job": job})
            if self.tracer is not None:
                self.tracer.complete(job, self, message)
            self.network.send_from(message, self, self.scheduler)
        if self.completion_listener is not None:
            self.completion_listener(job)
        self._maybe_start()
        self._load_changed()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def set_offline(self) -> None:
        """Stop starting new jobs (the one in service, if any, finishes)."""
        self.online = False

    def set_online(self) -> None:
        """Resume service, immediately starting queued work."""
        self.online = True
        self._maybe_start()

    def fail(self) -> int:
        """Crash the resource: every job on it is lost and it goes silent.

        Running jobs are killed mid-service (their completion events are
        cancelled, their partial work never reaches ``F``), queued jobs
        are dropped, and status reporting stops — the estimator's
        heartbeat timeout is the only way the RMS learns about the
        crash, exactly as with a real silent node failure.

        Returns the number of jobs killed.
        """
        if self.failed:
            return 0
        self.failed = True
        self.online = False
        killed = 0
        for job in list(self._running):
            ev = self._finish_events.pop(job, None)
            if ev is not None:
                self.sim.cancel(ev)
            job.mark_failed()
            if self.tracer is not None:
                self.tracer.record(job, "failed", entity=self.name)
            killed += 1
        self._running.clear()
        self._busy_procs = 0
        self.util_stat.update(self.sim.now, 0.0)
        for job, epoch in self._queue:
            if epoch == job.dispatch_epoch and job.state == JobState.PLACED:
                job.mark_failed()
                if self.tracer is not None:
                    self.tracer.record(job, "failed", entity=self.name)
                killed += 1
        self._queue.clear()
        self.jobs_killed += killed
        self._failed_interval = self._report_interval
        self.stop_reporting()
        if self.fluid_sink is not None:
            self.fluid_sink.on_fail(self)
        return killed

    def repair(self) -> None:
        """Recover from a crash: come back empty and announce liveness.

        The first post-repair status report is unconditional (the last
        reported load is forgotten), which is what revives the entry in
        every :class:`~repro.grid.status.StatusTable` that aged it out.
        """
        if not self.failed:
            return
        self.failed = False
        self.online = True
        self.incarnation += 1
        if self.fluid_sink is not None:
            self.fluid_sink.on_repair(self)
        if self._failed_interval is not None:
            self._last_reported_load = None
            self.start_reporting(
                self._failed_interval, phase=0.0, max_silence=self._max_silence
            )
            self._failed_interval = None
        self._maybe_start()

    # ------------------------------------------------------------------
    # Status reporting (periodic + suppression)
    # ------------------------------------------------------------------
    def start_reporting(
        self, interval: float, phase: float = 0.0, max_silence: Optional[int] = 3
    ) -> None:
        """Begin status reporting with period ``interval`` (tau).

        Semantics match the paper's periodic-update-with-suppression
        model: the resource reports its load at most once per
        ``interval``, *suppressing* reports while the load is unchanged,
        plus a keepalive after ``max_silence`` silent intervals (standard
        soft-state refresh — without it a quiet resource would never
        confirm its state and the manager could not distinguish "idle"
        from "unreachable").  ``max_silence=None`` disables keepalives.

        The implementation is event-driven rather than tick-driven —
        sends are triggered by load changes (rate-limited to one per
        interval) and by the keepalive timer — which produces the same
        update stream without a per-tick event for every resource (the
        dominant event source in a 1000-node run otherwise).

        ``phase`` staggers the initial report so a thousand resources do
        not all update at the same instant.
        """
        if interval <= 0.0:
            raise ValueError("report interval must be positive")
        if max_silence is not None and max_silence < 1:
            raise ValueError("max_silence must be >= 1 (or None)")
        self._report_interval = interval
        self._max_silence = max_silence
        self._send_event = self.sim.schedule(phase % interval, self._send_report)

    def stop_reporting(self) -> None:
        """Cancel status reporting (used by on-demand-only protocols)."""
        for ev_attr in ("_send_event", "_keepalive_event"):
            ev = getattr(self, ev_attr)
            if ev is not None:
                self.sim.cancel(ev)
                setattr(self, ev_attr, None)
        self._report_interval = None

    def _load_changed(self) -> None:
        """Hook invoked on every load transition: arrange a (rate
        limited) report if one is not already pending."""
        if self.fluid_sink is not None:
            # Fluid traffic mode: the plane models the report stream as
            # rates — O(1) bookkeeping here, no kernel event.
            self.fluid_sink.on_load_change(self)
            return
        if self._report_interval is None or self._send_event is not None:
            return
        due = max(0.0, self._last_sent_time + self._report_interval - self.sim.now)
        self._send_event = self.sim.schedule(due, self._send_report)

    def _send_report(self, force: bool = False) -> None:
        self._send_event = None
        if self._report_interval is None:
            return
        load = self.load
        changed = self._last_reported_load is None or load != self._last_reported_load
        if (changed or force) and self.network is not None and self.estimator is not None:
            self._last_reported_load = load
            self._last_sent_time = self.sim.now
            self.network.send_from(
                StatusUpdate(self.resource_id, self.cluster_id, load, self.incarnation),
                self,
                self.estimator,
            )
        elif self._last_reported_load is None:
            # No transport wired (unit tests); still mark the baseline.
            self._last_reported_load = load
            self._last_sent_time = self.sim.now
        self._arm_keepalive()

    def _arm_keepalive(self) -> None:
        if self._keepalive_event is not None:
            self.sim.cancel(self._keepalive_event)
            self._keepalive_event = None
        if self._max_silence is None or self._report_interval is None:
            return
        span = self._max_silence * self._report_interval
        self._keepalive_event = self.sim.schedule(span, self._keepalive_fire)

    def _keepalive_fire(self) -> None:
        self._keepalive_event = None
        if self._report_interval is None:
            return
        span = self._max_silence * self._report_interval
        idle = self.sim.now - self._last_sent_time
        if idle >= span - 1e-9:
            if self._send_event is not None:
                self.sim.cancel(self._send_event)
                self._send_event = None
            self._send_report(force=True)
        else:
            self._keepalive_event = self.sim.schedule(
                span - idle, self._keepalive_fire
            )
