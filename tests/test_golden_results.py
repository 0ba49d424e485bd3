"""Golden simulation results, pinned as literals.

A change that only makes the program faster or smaller must leave every
result it computes bit-identical: F/G/H, job counts, message counts and
the attribution cells of each design, the series and trace payloads of
an observed run, and the exact counts of a fluid run.  The values below
are literals recorded from the code, not recomputed from it, so any
drift in the science fails here with the quantity that moved.

Every run is small (ci profile at k=1, or the 500-resource fluid point
``repro bench-perf`` uses as its overlap config); the module takes a few
seconds.
"""

import hashlib
import json

import pytest

from repro.experiments.benchperf import _run_counting_events
from repro.experiments.cases import get_case
from repro.experiments.config import PROFILES, SimulationConfig
from repro.experiments.runner import run_simulation
from repro.faults import FaultPlan
from repro.fluid.plan import FluidPlan
from repro.grid.status import StatusTable
from repro.telemetry.timeseries import MonitorPlan
from repro.telemetry.tracing import TracePlan

SEED = 5


def payload_digest(payload) -> str:
    """Short content hash of a JSON-able payload (floats kept exactly)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def ci_run(rms: str, **plans):
    return run_simulation(get_case(1).config_for(rms, 1, PROFILES["ci"], seed=SEED, **plans))


def outcome(metrics):
    r = metrics.record
    return (
        r.F,
        r.G,
        r.H,
        metrics.jobs_submitted,
        metrics.jobs_successful,
        metrics.messages_sent,
        payload_digest(metrics.attribution),
    )


#: design -> (F, G, H, jobs submitted, jobs successful, messages sent,
#: attribution digest)
_GOLDEN_CI = {
    "CENTRAL": (47199.06409991724, 19095.5, 37.5, 75, 73, 3817, "eb980f1299d54d6a"),
    "LOWEST": (47765.555393634546, 25287.0, 37.5, 75, 74, 3898, "04eb8d6b78e14282"),
    "RESERVE": (47765.555393634546, 28253.0, 37.8, 75, 74, 6033, "cdb7acca5c415c26"),
    "AUCTION": (47765.555393634546, 32944.0, 37.8, 75, 74, 7657, "3ec85b2b2d4ecd98"),
    "S-I": (47765.55539363455, 25875.0, 41.1, 75, 74, 3992, "7f21d0ac28edfc26"),
    "R-I": (47765.555393634546, 31040.0, 37.8, 75, 74, 8593, "1eaa8e39f4458854"),
    "Sy-I": (47765.555393634546, 30931.0, 37.8, 75, 74, 8606, "9372eea229533e16"),
}


@pytest.mark.parametrize("rms", sorted(_GOLDEN_CI))
def test_discrete_results_are_golden(rms):
    assert outcome(ci_run(rms)) == _GOLDEN_CI[rms]


#: resource churn arms the estimators' liveness watch (arrival-time
#: bookkeeping, incarnation jumps, pre-declaration report dropping)
_GOLDEN_FAULTS = {
    "CENTRAL": (
        (45417.34605256505, 19169.199999999997, 50.0, 75, 70, 3786, "15d163ba1e838f03"),
        {"jobs_killed": 28, "dead_reported": 88, "redispatches": 28},
    ),
    "LOWEST": (
        (47715.39092852703, 25313.149999999998, 51.6, 75, 73, 3859, "9b21dd0d260ec399"),
        {"jobs_killed": 29, "dead_reported": 88, "redispatches": 29},
    ),
}


@pytest.mark.parametrize("rms", sorted(_GOLDEN_FAULTS))
def test_fault_results_are_golden(rms):
    metrics = ci_run(rms, faults=FaultPlan(resource_mttf=3000.0, resource_mttr=300.0))
    expected, stats = _GOLDEN_FAULTS[rms]
    assert outcome(metrics) == expected
    assert metrics.fault_stats["crashes"] == metrics.fault_stats["recoveries"] == 88
    assert {k: metrics.fault_stats[k] for k in stats} == stats


def test_observed_payloads_are_golden():
    """The series and trace payloads under the passive plans the
    ``observed-full`` benchmark workload runs with."""
    metrics = ci_run(
        "CENTRAL",
        monitor=MonitorPlan(series=True, window=500.0, probe_interval=100.0, charge_rate=0.0),
        trace=TracePlan(sample=1.0, charge_rate=0.0),
    )
    assert outcome(metrics) == _GOLDEN_CI["CENTRAL"]
    assert payload_digest(metrics.series) == "09046e43dc6782db"
    assert payload_digest(metrics.trace) == "a34c7da7cd5bc60d"


def test_fluid_counts_are_golden(monkeypatch):
    """Noise-free counts of the fluid overlap point (LOWEST, 500
    resources, 4 schedulers): what a timing of that run cannot show."""
    calls = []
    record = StatusTable.record

    def counted(self, *args):
        calls.append(None)
        return record(self, *args)

    monkeypatch.setattr(StatusTable, "record", counted)
    prof = PROFILES["extreme"]
    config = SimulationConfig(
        rms="LOWEST",
        n_schedulers=4,
        n_resources=500,
        n_estimators=63,
        workload_rate=prof.base_rate_per_resource * 500,
        horizon=prof.horizon,
        drain=prof.drain,
        seed=7,
        fluid=FluidPlan(mode="fluid"),
    )
    metrics, kernel_events, _, system = _run_counting_events(config)
    stats = system.fluid.stats()
    assert kernel_events == 168
    assert (
        stats["flushes"],
        stats["modeled_updates"],
        stats["modeled_keepalives"],
        stats["modeled_forwards"],
    ) == (150, 12503, 11997, 3369)
    assert len(calls) == 12503
    r = metrics.record
    assert (r.F, r.G, r.H) == (1326.0828491496864, 63717.5, 1.5)
