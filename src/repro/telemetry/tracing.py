"""Causal job tracing: sampled span DAGs across the job lifecycle.

A :class:`TracePlan` selects a deterministic fraction of jobs; for each
sampled job the :class:`TraceRecorder` collects a bounded, time-ordered
list of lifecycle events (``sched_deliver``, ``decision_begin``,
``dispatch_send``, ``resource_accept``, ``service_begin``, ``complete``,
plus ``park``/``transfer_send``/``failed``/``redispatch`` on the paths
that take them, and ``result_return`` after completion).  Each event
implicitly parents the previous event of the same job; events that
cross a message hop additionally carry an explicit ``parent`` index —
the trace context rides on :class:`~repro.network.messages.Message`
(``trace`` slot) so the DAG survives transit through the router and
middleware relays.

Discipline (same as flightrec / the series recorder):

* tracing is **off by default** — ``SchedulerBase.tracer`` and
  ``Resource.tracer`` stay the class-level ``None`` and every hot-path
  hook is one ``is None`` test;
* sampling is a **pure hash** of ``(seed, job_id)`` (BLAKE2b), never a
  draw from a simulation RNG stream, so enabling tracing cannot perturb
  any stochastic behaviour and the sampled set is reproducible;
* recording **charges** the ledger (``g.trace``) only when the plan's
  ``charge_rate`` is positive; a zero-charge plan is *passive* and must
  leave every result and cache key bit-for-bit unchanged (see
  ``parallel.hashing``: passive plans are dropped from the key).

The per-message-class latency histograms are fed by
``Network.latency_tap`` — an optional callable the recorder installs,
again ``None`` (and free) when tracing is off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..network.messages import MessageKind
from . import flightrec
from .collectors import Histogram, snapshot_collector

__all__ = [
    "ENV_CHARGE",
    "ENV_MAX_EVENTS",
    "ENV_SAMPLE",
    "LATENCY_BUCKETS",
    "TRACE_CATEGORY",
    "TRACE_SOURCE",
    "TracePlan",
    "TraceRecorder",
    "job_is_sampled",
    "resolve_trace_plan",
    "trace_id_for",
    "trace_plan_from_jsonable",
    "trace_plan_to_jsonable",
]

#: ledger category trace recording overhead is charged to (G side —
#: instrumentation is RMS work, like ``g.monitor`` probes)
TRACE_CATEGORY = "g.trace"

#: attribution source tag for trace charges
TRACE_SOURCE = ("trace", "spans", "record")

#: environment knobs (flag > env > default, see :func:`resolve_trace_plan`)
ENV_SAMPLE = "REPRO_TRACE_SAMPLE"
ENV_CHARGE = "REPRO_TRACE_CHARGE_RATE"
ENV_MAX_EVENTS = "REPRO_TRACE_MAX_EVENTS"

#: transit-delay histogram bounds (simulated time units; spans the
#: co-located fast path through WAN-scaled relay hops)
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0
)

#: events that may exceed the per-job bound: without the terminal event
#: a truncated job could not be decomposed at all, so ``complete`` always
#: lands (intermediate drops only coarsen the phase attribution — any
#: ordered event subset still telescopes to completion minus arrival)
_TERMINAL_EVENTS = frozenset({"complete"})


@dataclass(frozen=True)
class TracePlan:
    """Causal-tracing configuration carried on a ``SimulationConfig``.

    Attributes
    ----------
    sample:
        Fraction of jobs traced, in ``[0, 1]``.  ``0`` (default) keeps
        tracing entirely off.
    charge_rate:
        Simulated time charged to ``g.trace`` per recorded span.  A
        positive rate makes the plan *active* (hashed into cache keys);
        zero keeps it passive — observation without cost.
    max_events:
        Per-job span bound; past it only terminal events are recorded
        and the rest are counted as dropped.
    """

    sample: float = 0.0
    charge_rate: float = 0.02
    max_events: int = 64

    def __post_init__(self) -> None:
        if not (0.0 <= self.sample <= 1.0) or not math.isfinite(self.sample):
            raise ValueError(f"sample must be in [0, 1], got {self.sample!r}")
        if self.charge_rate < 0.0 or not math.isfinite(self.charge_rate):
            raise ValueError(
                f"charge_rate must be finite and >= 0, got {self.charge_rate!r}"
            )
        if int(self.max_events) < 4:
            raise ValueError(f"max_events must be >= 4, got {self.max_events!r}")

    @property
    def is_enabled(self) -> bool:
        """Whether any job is traced at all."""
        return self.sample > 0.0

    @property
    def is_active(self) -> bool:
        """Whether tracing charges the ledger (and so perturbs G)."""
        return self.sample > 0.0 and self.charge_rate > 0.0


def trace_plan_to_jsonable(plan: TracePlan) -> Dict[str, Any]:
    """A plan as plain JSON types (cache hashing, manifests)."""
    return dataclasses.asdict(plan)


def trace_plan_from_jsonable(payload: Dict[str, Any]) -> TracePlan:
    """Rebuild a plan from :func:`trace_plan_to_jsonable` output."""
    return TracePlan(
        sample=float(payload.get("sample", 0.0)),
        charge_rate=float(payload.get("charge_rate", 0.02)),
        max_events=int(payload.get("max_events", 64)),
    )


def resolve_trace_plan(
    sample: Optional[float] = None,
    charge_rate: Optional[float] = None,
    max_events: Optional[int] = None,
    default_sample: float = 0.0,
) -> TracePlan:
    """Build a plan from explicit knobs, the environment, and defaults.

    Explicit arguments win; unset ones fall back to ``REPRO_TRACE_*``
    environment variables, then to the dataclass defaults
    (``default_sample`` lets callers like ``repro trace`` default the
    sampling rate on instead of off).
    """

    from ..envknobs import get_float

    sample = get_float(ENV_SAMPLE, override=sample, default=default_sample)
    charge_rate = get_float(ENV_CHARGE, override=charge_rate)
    # read as float for historical tolerance ("64.0"), truncated below
    max_events = get_float(ENV_MAX_EVENTS, override=max_events)
    kwargs: Dict[str, Any] = {"sample": float(sample)}
    if charge_rate is not None:
        kwargs["charge_rate"] = float(charge_rate)
    if max_events is not None:
        kwargs["max_events"] = int(max_events)
    return TracePlan(**kwargs)


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

def _digest(seed: int, job_id: int) -> bytes:
    return hashlib.blake2b(
        f"{seed}:{job_id}".encode("ascii"), digest_size=8
    ).digest()


def job_is_sampled(seed: int, job_id: int, sample: float) -> bool:
    """Whether a job is in the sampled set — a pure function.

    The decision hashes ``(seed, job_id)`` (BLAKE2b), so the same seed
    always samples the same jobs regardless of worker count or traffic
    mode, and no simulation RNG stream is consumed.
    """
    if sample <= 0.0:
        return False
    if sample >= 1.0:
        return True
    return int.from_bytes(_digest(seed, job_id), "big") < sample * 2.0**64


def trace_id_for(seed: int, job_id: int) -> str:
    """The job's stable trace id (hex of the sampling digest)."""
    return _digest(seed, job_id).hex()


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------

class TraceRecorder:
    """Collects span DAGs for the sampled jobs of one run.

    Built by ``build_system`` when the config's plan is enabled; armed
    via :meth:`arm` **before** the workload is scheduled (arrival events
    bind each scheduler's ``deliver`` at schedule time, so the
    instance-level shadow must already be in place), and told the job
    population via :meth:`register_jobs` once specs exist.
    """

    def __init__(self, sim, plan: TracePlan, ledger, seed: int) -> None:
        self.sim = sim
        self.plan = plan
        self.ledger = ledger
        self.seed = int(seed)
        #: sampled job id -> trace id
        self.trace_ids: Dict[int, str] = {}
        #: sampled job id -> ordered event records
        self.events: Dict[int, List[Dict[str, Any]]] = {}
        #: sampled job id -> Job (for arrival/completion in the payload)
        self._jobs: Dict[int, Any] = {}
        #: job id -> event index of the last stamped (in-flight) send
        self._pending_parent: Dict[int, int] = {}
        #: per-message-kind transit-delay histograms
        self.latency: Dict[str, Histogram] = {}
        self.recorded = 0
        self.dropped = 0
        self._max_events = int(plan.max_events)
        self._charge = float(plan.charge_rate)
        self._flight = flightrec.current()

    # -- wiring ----------------------------------------------------------
    def arm(self, schedulers, resources, network) -> None:
        """Install the per-entity hooks (idempotent per system build)."""
        for sched in schedulers:
            sched.tracer = self
            self._shadow_scheduler(sched)
        for res in resources:
            res.tracer = self
        network.latency_tap = self.on_send

    def register_jobs(self, jobs) -> None:
        """Evaluate the sampling predicate over the job population."""
        sample = self.plan.sample
        seed = self.seed
        for job in jobs:
            job_id = job.job_id
            if job_is_sampled(seed, job_id, sample):
                self.trace_ids[job_id] = trace_id_for(seed, job_id)
                self.events[job_id] = []
                self._jobs[job_id] = job

    def _shadow_scheduler(self, sched) -> None:
        """Shadow ``deliver``/``_begin`` on the instance.

        Scheduler subclasses have no ``__slots__`` (the builder already
        assigns ``network``/``rng``/``peers`` dynamically), so the
        instance attribute wins every ``self.deliver`` lookup — the
        class machinery stays untouched and untraced runs never pay.
        """
        deliver = sched.deliver
        begin = sched._begin
        events = self.events
        name = sched.name

        def traced_deliver(message) -> None:
            kind = message.kind
            if kind == MessageKind.JOB_SUBMIT or kind == MessageKind.JOB_TRANSFER:
                job = message.payload["job"]
                if job.job_id in events:
                    self.record(job, "sched_deliver", entity=name)
            elif kind == MessageKind.JOB_COMPLETE:
                job = message.payload["job"]
                if job.job_id in events:
                    self.record(job, "result_return", entity=name)
            deliver(message)

        def traced_begin(message) -> None:
            kind = message.kind
            if kind == MessageKind.JOB_SUBMIT or kind == MessageKind.JOB_TRANSFER:
                job = message.payload["job"]
                if job.job_id in events:
                    self.record(job, "decision_begin", entity=name)
            begin(message)

        sched.deliver = traced_deliver
        sched._begin = traced_begin

    # -- recording -------------------------------------------------------
    def record(self, job, name: str, **attrs: Any) -> None:
        """Append one span to the job's trace (bounded, charged)."""
        job_id = job.job_id
        events = self.events.get(job_id)
        if events is None:
            return
        if len(events) >= self._max_events and name not in _TERMINAL_EVENTS:
            self.dropped += 1
            return
        event: Dict[str, Any] = {"name": name, "t": self.sim.now}
        parent = self._pending_parent.pop(job_id, None)
        if parent is not None:
            event["parent"] = parent
        if attrs:
            event.update(attrs)
        events.append(event)
        self.recorded += 1
        if self._charge > 0.0:
            self.ledger.charge(TRACE_CATEGORY, self._charge, TRACE_SOURCE)
        if self._flight is not None:
            self._flight.trace_span(job_id, name, self.sim.now, **attrs)

    def stamp(self, job, message) -> None:
        """Attach the trace context to a job-plane message.

        The receive side records the stamped event index as its
        ``parent``, turning the per-job event list into a DAG whose
        cross-entity edges are exactly the message hops.
        """
        job_id = job.job_id
        events = self.events.get(job_id)
        if not events:
            return
        index = len(events) - 1
        message.trace = (self.trace_ids[job_id], index)
        self._pending_parent[job_id] = index

    # -- hook entry points (call sites are one ``is None`` test) ---------
    def dispatch_send(self, job, scheduler, resource_id, message) -> None:
        """A local dispatch left the scheduler (records staleness)."""
        if job.job_id not in self.events:
            return
        staleness = scheduler.table.staleness_of(resource_id, self.sim.now)
        self.record(
            job,
            "dispatch_send",
            entity=scheduler.name,
            resource=resource_id,
            staleness=None if staleness != staleness else staleness,
        )
        self.stamp(job, message)

    def transfer_send(self, job, scheduler, message) -> None:
        """The job was handed to a peer scheduler."""
        if job.job_id not in self.events:
            return
        self.record(job, "transfer_send", entity=scheduler.name)
        self.stamp(job, message)

    def complete(self, job, resource, message) -> None:
        """The job finished at a resource (stamps the result message)."""
        if job.job_id not in self.events:
            return
        self.record(job, "complete", entity=resource.name)
        self.stamp(job, message)

    def on_send(self, kind: str, delay: float) -> None:
        """``Network.latency_tap``: one transit delay per routed send."""
        hist = self.latency.get(kind)
        if hist is None:
            hist = self.latency[kind] = Histogram(
                f"latency.{kind}", buckets=LATENCY_BUCKETS
            )
        hist.record(delay)

    # -- output ----------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """The run's trace payload (rides on ``RunMetrics.trace``)."""
        jobs: Dict[str, Any] = {}
        for job_id in sorted(self.trace_ids):
            job = self._jobs[job_id]
            jobs[str(job_id)] = {
                "trace_id": self.trace_ids[job_id],
                "arrival": job.spec.arrival_time,
                "completion": job.completion_time,
                "response": job.response_time,
                "retries": job.retries,
                "transfers": job.transfers,
                "successful": job.successful,
                "events": self.events[job_id],
            }
        latency: Dict[str, Any] = {}
        for kind in sorted(self.latency):
            hist = self.latency[kind]
            snap = snapshot_collector(hist)
            latency[str(kind)] = snap
        return {
            "v": 1,
            "plan": trace_plan_to_jsonable(self.plan),
            "sampled": len(self.trace_ids),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "jobs": jobs,
            "latency": latency,
        }
