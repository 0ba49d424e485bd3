"""Build a complete managed system and run one simulation.

:func:`build_system` wires every substrate together for a given
:class:`~repro.experiments.config.SimulationConfig`:

topology -> grid map -> router/network -> resources -> estimators ->
schedulers (of the configured RMS design) -> middleware (if the design
uses one) -> status reporting -> workload injection.

:func:`run_simulation` executes it and aggregates a :class:`RunMetrics`
— the Observation the core tuner consumes plus everything the figures
need (throughput, response times, message counts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.efficiency import EfficiencyRecord
from ..core.ledger import Category, CostLedger
from ..faults.injector import FaultInjector
from ..fluid.plane import FluidStatusPlane
from ..grid.estimator import Estimator
from ..grid.jobs import Job, JobState
from ..grid.middleware import Middleware
from ..grid.resource import Resource
from ..grid.status import StatusTable
from ..network.messages import Message, MessageKind
from ..network.routing import Router
from ..network.transport import Network
from ..rms.registry import get_rms
from ..sim.kernel import Simulator
from ..sim.monitor import Tally
from ..sim.rng import RngHub
from ..telemetry import flightrec as _flightrec
from ..telemetry.spans import current as _telemetry
from ..telemetry.timeseries import ProbeSampler, RunSeriesRecorder
from ..telemetry.tracing import TraceRecorder
from ..topology.generator import TopologyParams, generate_topology
from ..topology.grid_map import map_grid
from ..workload.dags import DagWorkloadGenerator
from ..workload.generator import WorkloadGenerator
from .config import SimulationConfig

__all__ = [
    "DependencyCoordinator",
    "RunMetrics",
    "System",
    "build_system",
    "run_simulation",
]


class DependencyCoordinator:
    """Releases dependency-constrained jobs (paper future work (b)).

    A job with precedence constraints is held until **all** of its
    parents complete *and* its own arrival instant has passed; it is
    then submitted to its cluster's scheduler.  Every cross-cluster
    parent→child edge charges the RP's data-management overhead (data
    staged from where the parent ran to where the child is submitted),
    which is what makes ``H(k)`` a meaningful scalability axis for DAG
    workloads (paper future work (c)).
    """

    def __init__(self, sim, dag, jobs_by_id, schedulers, ledger, costs) -> None:
        self.sim = sim
        self.dag = dag
        self._jobs_by_id = jobs_by_id
        self._schedulers = schedulers
        self._ledger = ledger
        self._costs = costs
        self._pending = {child: len(ps) for child, ps in dag.parents.items()}
        self._children = dag.children()
        self._arrived = set()
        #: cross-cluster staging edges charged (diagnostics)
        self.staged_edges = 0
        # attribution tag for cross-cluster staging charges
        self._src_staging = ("coordinator", "dag", "staging")

    def job_arrived(self, job: Job) -> None:
        """The job's own arrival instant passed; release if unblocked."""
        self._arrived.add(job.job_id)
        if self._pending.get(job.job_id, 0) == 0:
            self._release(job)

    def on_complete(self, job: Job) -> None:
        """A job finished: unblock its children."""
        for child_id in self._children.get(job.job_id, ()):
            left = self._pending.get(child_id, 0)
            if left <= 0:
                continue
            self._pending[child_id] = left - 1
            if self._pending[child_id] == 0 and child_id in self._arrived:
                self._release(self._jobs_by_id[child_id])

    def _release(self, job: Job) -> None:
        cluster = job.spec.submit_cluster % len(self._schedulers)
        # Stage data from each parent's execution site.
        for parent_id in self.dag.parents.get(job.job_id, ()):
            parent = self._jobs_by_id[parent_id]
            if parent.executed_cluster is not None and parent.executed_cluster != cluster:
                self.staged_edges += 1
                self._ledger.charge(Category.DATA_MGMT, self._costs.data_mgmt, self._src_staging)
        scheduler = self._schedulers[cluster]
        scheduler.deliver(Message(MessageKind.JOB_SUBMIT, payload={"job": job}))


@dataclass
class System:
    """A fully wired managed system, ready to run."""

    config: SimulationConfig
    sim: Simulator
    ledger: CostLedger
    network: Network
    schedulers: List
    resources: List[Resource]
    estimators: List[Estimator]
    middleware: Optional[Middleware]
    jobs: List[Job]
    #: present only for dependency-constrained workloads
    coordinator: Optional[DependencyCoordinator] = None
    #: present only when the config's FaultPlan injects faults
    injector: Optional[FaultInjector] = None
    #: present only when the config's MonitorPlan records anything
    recorder: Optional[RunSeriesRecorder] = None
    #: present only when the plan's probe loop is on
    sampler: Optional[ProbeSampler] = None
    #: present only in fluid traffic mode
    fluid: Optional[FluidStatusPlane] = None
    #: present only when the config's TracePlan samples any jobs
    tracer: Optional[TraceRecorder] = None


@dataclass(frozen=True)
class RunMetrics:
    """Aggregated outcome of one simulation run.

    Satisfies the core tuner's ``Observation`` protocol via ``record``
    and ``success_rate``.
    """

    record: EfficiencyRecord
    jobs_submitted: int
    jobs_completed: int
    jobs_successful: int
    mean_response: float
    throughput: float
    messages_sent: int
    scheduler_busy: float
    horizon: float
    #: exact F/G/H decomposition by (category, component, entity,
    #: message class) — flattened keys, see ``CostLedger.attribution``.
    #: ``math.fsum`` over any prefix's values reproduces the recorded
    #: F/G/H bit-for-bit (conservation invariant).
    attribution: Optional[Dict[str, float]] = None
    #: per-message-kind network traffic (messages, payload, link_payload,
    #: hops) — the network's axis of the attribution report; transit time
    #: is latency, not RMS cost, so it never appears in G.
    traffic: Optional[Dict[str, Dict[str, float]]] = None
    #: fault-injection and recovery counters (crashes, jobs killed,
    #: re-dispatches, ...); ``None`` for fault-free runs so zero-fault
    #: metrics stay byte-identical to pre-faults builds.
    fault_stats: Optional[Dict[str, int]] = None
    #: windowed F/G/H/probe streams (``WindowedSeries.to_jsonable``
    #: shape); ``None`` unless the config's MonitorPlan is enabled, so
    #: unmonitored metrics stay byte-identical to pre-series builds.
    series: Optional[Dict] = None
    #: sampled-job span DAGs and per-message-class latency histograms
    #: (``TraceRecorder.payload`` shape); ``None`` unless the config's
    #: TracePlan is enabled, so untraced metrics stay byte-identical to
    #: pre-tracing builds.
    trace: Optional[Dict] = None

    @property
    def success_rate(self) -> float:
        """Successful jobs over submitted jobs (unfinished jobs count
        against the RMS — they missed their window entirely)."""
        if self.jobs_submitted == 0:
            return 1.0
        return self.jobs_successful / self.jobs_submitted

    @property
    def efficiency(self) -> float:
        """``E = F/(F+G+H)`` of the run."""
        return self.record.efficiency


def build_system(config: SimulationConfig) -> System:
    """Construct the managed system described by ``config``."""
    info = get_rms(config.rms)
    hub = RngHub(config.seed)
    sim = Simulator()
    ledger = CostLedger()

    n_sched = 1 if info.centralized else config.n_schedulers
    n_clusters = n_sched
    n_est = config.n_estimators if config.n_estimators is not None else n_sched

    # --- topology + placement -----------------------------------------
    n_nodes = config.n_resources + n_sched
    topo = generate_topology(
        TopologyParams(n_nodes=max(4, n_nodes)), hub.stream("topology")
    )
    gm = map_grid(
        topo,
        n_schedulers=n_sched,
        n_resources=config.n_resources,
        n_estimators=n_est,
    )
    router = Router(topo)
    if gm.scheduler_tables is not None:
        # Donate the mapper's per-scheduler shortest-path tables:
        # scheduler (and co-located estimator) sites originate nearly
        # all routed traffic, so the router never searches from its
        # hottest sources.
        router.prime(gm.scheduler_nodes, gm.scheduler_tables)
    fluid_mode = config.fluid.is_fluid
    if fluid_mode:
        # At 1e5-scale pools nearly every resource node sends at least
        # one routed message (job completions), and a per-source
        # Dijkstra each would dwarf the run itself.  Latency-symmetric
        # reverse lookup reuses the schedulers' cached tables.
        router.symmetric = True
    plan = config.faults
    network = Network(
        sim,
        router,
        delay_scale=config.link_delay_scale,
        loss_probability=plan.link_loss,
        rng=hub.stream("loss") if plan.any_link_loss else None,
    )

    # --- resources -------------------------------------------------------
    resources: List[Resource] = []
    for r in range(config.n_resources):
        res = Resource(
            sim,
            f"res{r}",
            node=gm.resource_nodes[r],
            resource_id=r,
            cluster_id=gm.cluster_of_resource[r],
            service_rate=config.service_rate,
            ledger=ledger,
            costs=config.costs,
        )
        res.network = network
        resources.append(res)

    # --- schedulers -------------------------------------------------------
    schedulers = []
    for s in range(n_sched):
        sched = info.scheduler_cls(
            sim,
            f"sched{s}",
            node=gm.scheduler_nodes[s],
            scheduler_id=s,
            ledger=ledger,
            costs=config.costs,
        )
        sched.network = network
        sched.rng = hub.stream(f"sched{s}")
        sched.l_p = config.l_p
        sched.t_l = config.common.t_l
        sched.redispatch_backoff = plan.redispatch_backoff
        sched.redispatch_cap = plan.redispatch_cap
        if hasattr(sched, "volunteer_interval"):
            sched.volunteer_interval = config.volunteer_interval
        schedulers.append(sched)

    for s, sched in enumerate(schedulers):
        mine = gm.resources_of_cluster[s]
        sched.resources = {r: resources[r] for r in mine}
        sched.table = StatusTable(mine)
        for r in mine:
            resources[r].scheduler = sched

    # Neighborhood sets: the nearest `neighborhood_size` peers by
    # transit latency between scheduler sites.
    for sched in schedulers:
        others = [p for p in schedulers if p is not sched]
        others.sort(key=lambda p: router.transit_delay(sched.node, p.node, 1.0))
        sched.peers = others[: config.neighborhood_size]

    # --- estimators -------------------------------------------------------
    estimators: List[Estimator] = []
    for e in range(n_est):
        est = Estimator(
            sim,
            f"est{e}",
            node=gm.estimator_nodes[e],
            estimator_id=e,
            ledger=ledger,
            costs=config.costs,
            batch_window=config.effective_batch_window,
        )
        est.network = network
        est.schedulers = {s: schedulers[s] for s in gm.schedulers_of_estimator.get(e, [])}
        estimators.append(est)
    for r, res in enumerate(resources):
        res.estimator = estimators[gm.estimator_of_resource[r]]

    # --- middleware -------------------------------------------------------
    middleware = None
    if info.uses_middleware:
        hub_node = max(range(topo.n_nodes), key=topo.degree)
        middleware = Middleware(sim, "middleware", hub_node, ledger, config.costs)
        middleware.network = network
        for sched in schedulers:
            sched.middleware = middleware

    # --- periodic machinery -------------------------------------------------
    # Per-resource report phases are drawn in BOTH traffic modes (fluid
    # discards them): the draws keep the phase stream aligned so the
    # scheduler volunteer phases — which stay discrete either way — are
    # bit-identical across modes, a precondition of the fluid-vs-
    # discrete cross-validation.
    phase_rng = hub.stream("phases")
    fluid_plane = None
    report_phases: List[float] = []
    for res in resources:
        phase = float(phase_rng.random() * config.update_interval)
        report_phases.append(phase)
        if not fluid_mode:
            res.start_reporting(config.update_interval, phase=phase)
    if fluid_mode:
        fluid_plane = FluidStatusPlane(
            sim,
            config,
            ledger,
            network,
            resources,
            estimators,
            gm,
            phases=report_phases,
        )
        for res in resources:
            res.fluid_sink = fluid_plane
        fluid_plane.arm()
    for sched in schedulers:
        if hasattr(sched, "start_volunteering"):
            sched.start_volunteering(
                phase=float(phase_rng.random() * config.volunteer_interval)
            )

    # --- fault injection -------------------------------------------------
    # Everything here is gated on the plan actually injecting something,
    # so an inert FaultPlan() adds no events, draws no RNG streams, and
    # leaves zero-fault runs byte-identical to a build without the
    # subsystem.
    injector = None
    if plan.has_resource_faults:
        # Failure detection: each estimator watches the resources that
        # report to it.  Sweeps are phase-staggered deterministically so
        # the estimators do not all sweep at the same instant.
        hb_timeout = config.heartbeat_timeout
        hb_interval = config.heartbeat_interval
        watched: Dict[int, Dict[int, int]] = {}
        for r in range(config.n_resources):
            e = gm.estimator_of_resource[r]
            watched.setdefault(e, {})[r] = gm.cluster_of_resource[r]
        if fluid_plane is not None:
            # Fluid mode: sweep *work* becomes a rate at the plane;
            # dead declarations stay discrete events at crash+timeout.
            fluid_plane.start_watch(
                watched, timeout=hb_timeout, interval=hb_interval
            )
        else:
            for e, est in enumerate(estimators):
                if e in watched:
                    est.start_watch(
                        watched[e],
                        timeout=hb_timeout,
                        interval=hb_interval,
                        phase=hb_interval * e / max(1, n_est),
                    )
    if not plan.is_inert and (
        plan.has_resource_faults or plan.blackouts or plan.degradations
    ):
        injector = FaultInjector(sim, plan, resources, schedulers, network)
        # Fault onsets stop with the workload at the horizon; recoveries
        # keep landing through the drain so killed jobs can still be
        # detected and re-dispatched before the run ends.
        injector.arm(
            end=config.horizon,
            rng=hub.stream("faults") if plan.has_churn else None,
            recover_until=config.horizon + config.drain,
        )

    # --- causal tracing ---------------------------------------------------
    # Armed *before* the workload: arrival events bind each scheduler's
    # ``deliver`` at ``schedule_at`` time, so the tracer's instance-level
    # shadow must already be in place.  With tracing off (the default)
    # every ``tracer``/``latency_tap`` attribute stays ``None`` and the
    # hot paths pay nothing.  Sampling is a pure hash of (seed, job_id)
    # — no RNG stream is drawn, so the arrival/topology/protocol streams
    # below are bit-identical with tracing on or off.
    tracer = None
    if config.trace.is_enabled:
        tracer = TraceRecorder(sim, config.trace, ledger, config.seed)
        tracer.arm(schedulers, resources, network)

    # --- workload -------------------------------------------------------------
    generator = WorkloadGenerator(
        rate=config.workload_rate,
        n_clusters=n_clusters,
        t_cpu=config.common.t_cpu,
        benefit_lo=config.common.benefit_lo,
        benefit_hi=config.common.benefit_hi,
    )
    coordinator = None
    if config.dependency_prob > 0.0:
        dag_gen = DagWorkloadGenerator(
            generator,
            dependency_prob=config.dependency_prob,
            max_parents=config.max_parents,
            window=config.dependency_window,
        )
        dag = dag_gen.generate(config.horizon, hub.stream("workload"))
        jobs = [Job(spec) for spec in dag.jobs]
        coordinator = DependencyCoordinator(
            sim,
            dag,
            {j.job_id: j for j in jobs},
            schedulers,
            ledger,
            config.costs,
        )
        for res in resources:
            res.completion_listener = coordinator.on_complete
        for job in jobs:
            sim.schedule_at(job.spec.arrival_time, coordinator.job_arrived, job)
    else:
        specs = generator.generate(config.horizon, hub.stream("workload"))
        jobs = [Job(spec) for spec in specs]
        for job in jobs:
            sched = schedulers[job.spec.submit_cluster % n_sched]
            sim.schedule_at(
                job.spec.arrival_time,
                sched.deliver,
                Message(MessageKind.JOB_SUBMIT, payload={"job": job}),
            )
    if tracer is not None:
        tracer.register_jobs(jobs)

    # --- time-resolved monitoring ----------------------------------------
    # Gated on the plan recording anything: an unmonitored run keeps
    # ledger.observer is None (no hot-path cost) and
    # schedules no probe events.  Armed *last* so the probe loop's event
    # only shifts seq numbers uniformly after all build-time scheduling;
    # probes are pure reads, so real events dispatch identically and a
    # zero-charge-rate plan leaves every result byte-identical.
    recorder = None
    sampler = None
    mplan = config.monitor
    if mplan.is_enabled:
        recorder = RunSeriesRecorder(mplan, config.horizon)
        if mplan.series:
            recorder.observe_ledger(sim, ledger)
        if mplan.probe_interval > 0.0:
            sampler = ProbeSampler(
                sim,
                mplan,
                recorder,
                ledger,
                schedulers,
                estimators,
                resources,
                fluid=fluid_plane,
            )
            sampler.arm(end=config.horizon + config.drain)

    return System(
        config=config,
        sim=sim,
        ledger=ledger,
        network=network,
        schedulers=schedulers,
        resources=resources,
        estimators=estimators,
        middleware=middleware,
        jobs=jobs,
        coordinator=coordinator,
        injector=injector,
        recorder=recorder,
        sampler=sampler,
        fluid=fluid_plane,
        tracer=tracer,
    )


def run_simulation(config: SimulationConfig) -> RunMetrics:
    """Build, run, and summarize one simulation.

    The arrival window is ``[0, horizon)``; the run then continues (in
    bounded steps) until every submitted job completed or the drain
    allowance is exhausted, so completions near the horizon are
    credited rather than truncated.

    With an ambient telemetry session the run is wrapped in a
    ``sim.run`` span carrying the kernel's dispatch totals (events
    executed, events/sec) — the kernel itself stays untouched; only
    its existing counters are read after the fact.

    With the ambient flight recorder on (``--flight-recorder`` /
    ``REPRO_FLIGHT_RECORDER=1``; pool workers inherit the env), the
    run's kernel dispatches and ledger charges feed the rolling rings,
    and any exception or cancellation dumps a post-mortem bundle before
    propagating — which is what makes a crash inside an
    ``ExperimentEngine`` worker diagnosable from artifacts alone.
    """
    tel = _telemetry()
    rec = _flightrec.current()
    with tel.span(
        "sim.run", rms=config.rms, seed=config.seed, horizon=config.horizon
    ) as span:
        t0 = time.monotonic()
        try:
            system = build_system(config)
            sim = system.sim
            if rec is not None:
                rec.note(
                    "sim.run start",
                    rms=config.rms,
                    seed=config.seed,
                    horizon=config.horizon,
                    n_schedulers=config.n_schedulers,
                    n_resources=config.n_resources,
                )
                sim.trace = rec.chain_kernel_trace(sim.trace)
                rec.observe_ledger(system.ledger)
            sim.run(until=config.horizon)

            deadline = config.horizon + config.drain
            step = max(200.0, config.horizon / 10.0)
            while sim.now < deadline and any(
                j.state != JobState.COMPLETED for j in system.jobs
            ):
                sim.run(until=min(deadline, sim.now + step))

            metrics = summarize(system)
            if tel.enabled and metrics.trace is not None:
                # One JSONL record per sampled job: the span DAG survives
                # in the ambient telemetry session's event stream even
                # when the caller discards RunMetrics.trace.
                for job_id, record in metrics.trace.get("jobs", {}).items():
                    tel.event(
                        "trace.job",
                        rms=config.rms,
                        seed=config.seed,
                        job_id=int(job_id),
                        **record,
                    )
        except BaseException as exc:
            already_dumped = getattr(exc, "_flightrec_dumped", False)
            if rec is not None and not already_dumped and not isinstance(exc, GeneratorExit):
                reason = (
                    "run.cancelled"
                    if isinstance(exc, KeyboardInterrupt)
                    else "sim.exception"
                )
                rec.dump(reason, error=exc, context={"rms": config.rms, "seed": config.seed})
                exc._flightrec_dumped = True
            raise
        if tel.enabled:
            wall = time.monotonic() - t0
            rate = sim.events_executed / wall if wall > 0 else 0.0
            span.set(
                events=sim.events_executed,
                sim_time=sim.now,
                jobs=len(system.jobs),
                events_per_sec=round(rate, 1),
            )
            scope = tel.metrics.scope("sim")
            scope.counter("runs").increment()
            scope.counter("events").increment(sim.events_executed)
            scope.tally("events_per_sec").record(rate)
        return metrics


def summarize(system: System) -> RunMetrics:
    """Aggregate a finished (or truncated) run into :class:`RunMetrics`."""
    jobs = system.jobs
    response = Tally("response")
    successful = 0
    completed = 0
    for j in jobs:
        if j.state == JobState.COMPLETED:
            completed += 1
            response.record(j.response_time)
            if j.successful:
                successful += 1
    horizon = system.config.horizon
    busy = sum(s.busy_time for s in system.schedulers)
    # Conservation insurance: the attribution cells are the only store
    # the F/G/H totals derive from, so this cannot trip unless the
    # ledger contract is broken — in which case the run must not be
    # silently trusted (the flight recorder, if on, bundles the window).
    try:
        system.ledger.check_conservation()
    except RuntimeError as exc:
        rec = _flightrec.current()
        if rec is not None:
            rec.dump(
                "invariant.conservation",
                error=exc,
                context={"rms": system.config.rms, "seed": system.config.seed},
            )
            exc._flightrec_dumped = True
        raise
    fault_stats = None
    plan = system.config.faults
    if system.injector is not None or plan.has_resource_faults:
        fault_stats = {
            "crashes": 0,
            "recoveries": 0,
            "blackouts": 0,
            "degradations": 0,
        }
        if system.injector is not None:
            fault_stats.update(system.injector.stats())
        fault_stats["jobs_killed"] = sum(r.jobs_killed for r in system.resources)
        fault_stats["stale_dispatches"] = sum(
            r.stale_dispatches for r in system.resources
        )
        fault_stats["dead_reported"] = sum(
            e.dead_reported for e in system.estimators
        )
        fault_stats["dead_notices"] = sum(
            s.dead_notices for s in system.schedulers
        )
        fault_stats["redispatches"] = sum(
            s.redispatches for s in system.schedulers
        )
        fault_stats["jobs_unrecovered"] = sum(
            1 for j in jobs if j.state == JobState.FAILED
        )
    series = None
    if system.recorder is not None:
        series = system.recorder.payload()
        if system.sampler is not None:
            series["sweeps"] = system.sampler.samples
    trace = None
    if system.tracer is not None:
        trace = system.tracer.payload()
    return RunMetrics(
        record=EfficiencyRecord.from_ledger(system.ledger),
        jobs_submitted=len(jobs),
        jobs_completed=completed,
        jobs_successful=successful,
        mean_response=response.mean,
        throughput=successful / horizon,
        messages_sent=system.network.messages_sent,
        scheduler_busy=busy,
        horizon=horizon,
        attribution=system.ledger.attribution(),
        traffic=system.network.traffic_summary(),
        fault_stats=fault_stats,
        series=series,
        trace=trace,
    )
