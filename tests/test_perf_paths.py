"""Tests for the performance fast paths and their behavioural contracts.

The perf work (speculative batched annealing, warm-started scale walks,
the inlined kernel dispatch loop, the ledger's running aggregates) is
required to be *behaviourally invisible*: identical results, fewer
cycles.  These tests pin that contract:

* ``Simulator.run`` clock semantics, including the
  ``run(until=..., max_events=0)`` regression (the clock must land on
  ``until`` even when the budget dispatches nothing);
* the simulator's future-event list under randomized interleaved
  schedule / cancel / pop, across the compaction threshold;
* :class:`CostLedger` running F/G/H aggregates versus ``breakdown()``,
  and rejection of NaN/inf charges;
* speculative ``anneal(width > 1)`` — identical budget accounting,
  determinism, batch evaluation via ``objective_many``;
* warm-started / speculative :class:`EnablerTuner` on the analytic toy
  system — fewer evaluations, same tuned points;
* the jobs-invariance contract end to end on real simulation configs:
  identical tuned points for ``jobs=1`` vs ``jobs=4`` with speculation
  on (and across reruns).
"""

import json
import math
import random

import numpy as np
import pytest

from repro.core import (
    AnnealingSchedule,
    CostLedger,
    EfficiencyRecord,
    Enabler,
    EnablerSpace,
    EnablerTuner,
    ScalabilityProcedure,
    ScalingPath,
    anneal,
)
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Simulator.run clock contract
# ---------------------------------------------------------------------------

class TestRunClockContract:
    def test_until_with_zero_budget_advances_clock(self):
        """Regression: ``run(until=..., max_events=0)`` used to return
        without moving the clock.  It must dispatch nothing but still
        land on ``until``."""
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.run(until=10.0, max_events=0)
        assert sim.now == 10.0
        assert fired == []
        assert sim.events_executed == 0
        assert sim.pending == 1

    def test_event_left_behind_advanced_clock_still_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run(until=10.0, max_events=0)
        sim.run()
        # The clock never runs backwards: the stale event fires with the
        # clock already at 10.
        assert fired == [10.0]
        assert sim.now == 10.0

    def test_budget_exhaustion_still_lands_on_until(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, fired.append, t)
        sim.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert sim.now == 10.0
        assert sim.pending == 2
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_zero_budget_without_until_is_a_noop(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(max_events=0)
        assert sim.now == 0.0
        assert sim.pending == 1

    def test_plain_horizon_run_unchanged(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(7.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run(until=9.0)
        assert fired == ["a", "b"]
        assert sim.now == 9.0


# ---------------------------------------------------------------------------
# Future-event list invariants under stress
# ---------------------------------------------------------------------------

def _noop(*_):
    pass


class TestEventQueueStress:
    def test_interleaved_push_cancel_pop_with_compaction(self):
        """Randomized workload crossing the compaction threshold.

        Invariants checked continuously: ``pending`` equals the number
        of live events, pops come out in strictly increasing
        ``(time, seq)`` order relative to the *remaining* schedule, and
        cancelled events never surface.
        """
        rng = random.Random(1234)
        sim = Simulator()
        seq = 0
        live = {}  # seq -> (time, handle)

        for round_ in range(3000):
            action = rng.random()
            if action < 0.55 or not live:
                t = rng.uniform(0.0, 100.0)
                live[seq] = (t, sim.schedule_at(t, _noop, seq))
                seq += 1
            elif action < 0.85:
                _, victim = live.pop(rng.choice(list(live)))
                sim.cancel(victim)
            else:
                t, fn, (s,) = sim.pop_until(None)
                assert fn is _noop
                assert s in live
                # Earliest live event: nothing remaining may sort below it.
                assert all((t, s) <= (other, o) for o, (other, _) in live.items())
                del live[s]
            assert sim.pending == len(live)

        # Drain: remaining live events come out in exact (time, seq) order.
        expected = sorted((t, s) for s, (t, _) in live.items())
        drained = [sim.pop_until(None) for _ in range(len(live))]
        assert [(t, args[0]) for t, _, args in drained] == expected
        assert sim.pending == 0
        assert sim.pop_until(None) is None

    def test_mass_cancellation_triggers_compaction(self):
        """Cancel far more than half of a large heap and verify the
        physical heap shrank while behaviour is unchanged."""
        sim = Simulator()
        handles = [sim.schedule(float(i), _noop, i) for i in range(500)]
        for h in handles[:400]:
            sim.cancel(h)
        assert sim.pending == 100
        assert len(sim._heap) < 500  # compaction dropped dead entries
        out = [sim.pop_until(None) for _ in range(100)]
        assert [args[0] for _, _, args in out] == list(range(400, 500))

    def test_pop_until_respects_horizon(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), _noop)
        early = []
        while True:
            item = sim.pop_until(4.0)
            if item is None:
                break
            early.append(item[0])
        assert early == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert sim.pending == 5  # the rest stayed queued
        assert sim.pop_until(None)[0] == 5.0

    def test_pop_until_discards_cancelled_head_beyond_horizon(self):
        sim = Simulator()
        dead = sim.schedule(8.0, _noop, 0)
        sim.schedule(9.0, _noop, 1)
        sim.cancel(dead)
        assert sim.pop_until(5.0) is None  # live head is beyond horizon
        time, _, args = sim.pop_until(None)
        assert (time, args) == (9.0, (1,))
        assert sim.pop_until(None) is None  # empty queue

    def test_pop_until_ties_respect_seq_order(self):
        sim = Simulator()
        for s in range(5):
            sim.schedule(1.0, _noop, s)
        order = [sim.pop_until(1.0)[2][0] for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# CostLedger running aggregates
# ---------------------------------------------------------------------------

class TestLedgerAggregates:
    def test_rejects_non_finite_charges(self):
        ledger = CostLedger()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ledger.charge("g.update", bad)
        with pytest.raises(ValueError, match="negative"):
            ledger.charge("g.update", -1.0)
        # Failed charges must leave no trace in totals or aggregates.
        assert ledger.breakdown() == {}
        assert ledger.F == ledger.G == ledger.H == 0.0
        assert ledger.grand_total == 0.0

    def test_running_aggregates_match_breakdown(self):
        """F/G/H are maintained incrementally on ``charge``; they must
        always equal what a scan over ``breakdown()`` computes."""
        rng = random.Random(7)
        ledger = CostLedger()
        categories = [
            "f.exec", "f.comm",
            "g.update", "g.sched", "g.msg",
            "h.idle", "h.queue",
        ]
        for _ in range(2000):
            ledger.charge(rng.choice(categories), rng.uniform(0.0, 10.0))

        breakdown = ledger.breakdown()

        def scan(prefix):
            return sum(v for c, v in breakdown.items() if c.startswith(prefix))

        assert ledger.F == pytest.approx(scan("f."), rel=1e-12)
        assert ledger.G == pytest.approx(scan("g."), rel=1e-12)
        assert ledger.H == pytest.approx(scan("h."), rel=1e-12)
        assert ledger.grand_total == pytest.approx(
            sum(breakdown.values()), rel=1e-12
        )

    def test_zero_amount_charges_count_consistently(self):
        ledger = CostLedger()
        ledger.charge("f.exec", 0.0)
        ledger.charge("f.exec", 3.0)
        assert ledger.F == 3.0
        assert ledger.total("f.exec") == 3.0


# ---------------------------------------------------------------------------
# Speculative annealing
# ---------------------------------------------------------------------------

def _walk(seed, width=1, iterations=40, objective_many=None, objective=None):
    objective = objective or (lambda x: (x - 17) ** 2)
    return anneal(
        initial=0,
        objective=objective,
        neighbor=lambda x, r: x + (1 if r.random() < 0.5 else -1),
        rng=np.random.default_rng(seed),
        schedule=AnnealingSchedule(iterations=iterations, t0=10.0, cooling=0.95),
        width=width,
        objective_many=objective_many,
    )


class TestSpeculativeAnneal:
    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            _walk(0, width=0)

    def test_budget_accounting_matches_serial(self):
        """Speculation reorders evaluation, it never adds evaluations:
        exactly one evaluation / iteration / cooling step per examined
        proposal, same as the serial walk."""
        for width in (1, 3, 4, 7):
            result = _walk(5, width=width, iterations=10)
            assert result.evaluations == 11  # initial + 10 moves
            assert len(result.trace) == 11

    def test_deterministic_across_reruns(self):
        for width in (1, 4):
            a = _walk(9, width=width)
            b = _walk(9, width=width)
            assert a.best == b.best
            assert a.best_value == b.best_value
            assert a.trace == b.trace

    def test_objective_many_receives_bursts(self):
        batches = []

        def many(points):
            batches.append(len(points))
            return [(x - 17) ** 2 for x in points]

        result = _walk(3, width=3, iterations=7, objective_many=many)
        # 7 iterations in bursts of 3: 3 + 3 + 1; the initial point goes
        # through the scalar objective.
        assert batches == [3, 3, 1]
        assert result.evaluations == 8

    def test_objective_many_agrees_with_scalar_fallback(self):
        """With ``objective_many`` absent the speculative path falls
        back to scalar evaluation; both routes must produce the same
        walk (all randomness is drawn before evaluation)."""
        via_batch = _walk(
            11, width=4, objective_many=lambda pts: [(x - 17) ** 2 for x in pts]
        )
        via_scalar = _walk(11, width=4)
        assert via_batch.best == via_scalar.best
        assert via_batch.trace == via_scalar.trace

    def test_trace_monotone_under_speculation(self):
        result = _walk(2, width=4)
        assert all(
            result.trace[i + 1] <= result.trace[i]
            for i in range(len(result.trace) - 1)
        )

    def test_speculative_walk_still_finds_minimum(self):
        result = _walk(0, width=4, iterations=400)
        assert abs(result.best - 17) <= 1


# ---------------------------------------------------------------------------
# Warm-started, speculative tuning on the analytic toy system
# ---------------------------------------------------------------------------

class _ToyObservation:
    def __init__(self, F, G, H, success=1.0):
        self.record = EfficiencyRecord(F=F, G=G, H=H)
        self.success_rate = success


def _toy_system(k, settings):
    """Scale-proportional toy RMS (same shape as test_core_tuner_procedure):
    tau=10 is the unique in-band grid point at every scale."""
    tau = settings["tau"]
    success = 1.0 if tau <= 40 else max(0.0, 1.0 - (tau - 40) / 80.0)
    F = 100.0 * k * success
    G = 140.0 * k * (10.0 / tau)
    H = 5.0 * k
    return _ToyObservation(F, G, H, success)


def _toy_space():
    return EnablerSpace(
        [Enabler("tau", (5.0, 10.0, 20.0, 40.0, 80.0), default_index=1)]
    )


class TestWarmStartedTuner:
    def _tuner(self, **kw):
        kw.setdefault("schedule", AnnealingSchedule(iterations=2, t0=0.5))
        kw.setdefault("seed", 1)
        return EnablerTuner(_toy_system, _toy_space(), **kw)

    def test_speculation_validation(self):
        with pytest.raises(ValueError, match="speculation"):
            self._tuner(speculation=0)

    def test_warm_start_cuts_evaluations_same_answer(self):
        cold = self._tuner()
        base_cold = cold.tune_base(1.0)
        cold_point = cold.tune(2.0, base_cold.efficiency)

        warm = self._tuner()
        base_warm = warm.tune_base(1.0)
        warm_point = warm.tune(
            2.0, base_warm.efficiency, warm_start=base_warm.settings
        )

        assert warm_point.settings == cold_point.settings == {"tau": 10.0}
        assert warm_point.feasible and cold_point.feasible
        # The warm presweep scans a window, not the grid: strictly fewer
        # distinct simulations at the new scale.
        assert warm.evaluations_by_scale()[2.0] < cold.evaluations_by_scale()[2.0]

    def test_speculative_tuner_matches_serial_points(self):
        serial = self._tuner(speculation=1)
        spec = self._tuner(speculation=4)
        p_serial = serial.tune_base(1.0)
        p_spec = spec.tune_base(1.0)
        assert p_spec.settings == p_serial.settings == {"tau": 10.0}
        assert p_spec.feasible

    def test_speculative_tuner_batches_through_batch_simulate(self):
        batch_sizes = []

        def batch(pairs):
            batch_sizes.append(len(pairs))
            return [_toy_system(k, s) for k, s in pairs]

        tuner = EnablerTuner(
            _toy_system,
            _toy_space(),
            schedule=AnnealingSchedule(iterations=8, t0=0.5),
            seed=3,
            batch_simulate=batch,
            speculation=4,
        )
        point = tuner.tune_base(1.0)
        assert point.settings == {"tau": 10.0}
        # The presweep batch (full grid) and at least the first annealing
        # burst go through batch_simulate.
        assert batch_sizes and batch_sizes[0] >= 4

    def test_evaluations_by_scale_sums_to_cache(self):
        tuner = self._tuner()
        base = tuner.tune_base(1.0)
        tuner.tune(2.0, base.efficiency, warm_start=base.settings)
        by_scale = tuner.evaluations_by_scale()
        assert set(by_scale) == {1.0, 2.0}
        assert sum(by_scale.values()) == tuner.evaluations

    def test_procedure_warm_start_matches_cold_answers(self):
        def run(warm_start):
            proc = ScalabilityProcedure(
                _toy_system,
                _toy_space(),
                path=ScalingPath((1, 2, 3)),
                schedule=AnnealingSchedule(iterations=5, t0=0.5),
                seed=2,
                warm_start=warm_start,
            )
            return proc, proc.run(name="TOY")

        cold_proc, cold = run(False)
        warm_proc, warm = run(True)
        assert [p.settings for p in warm.points] == [
            p.settings for p in cold.points
        ]
        assert warm.feasible_through == cold.feasible_through
        assert warm_proc.tuner.evaluations < cold_proc.tuner.evaluations


# ---------------------------------------------------------------------------
# Jobs invariance on real configurations (the determinism contract)
# ---------------------------------------------------------------------------

def _point_fingerprint(point):
    return {
        "scale": point.scale,
        "settings": dict(point.settings),
        "F": point.record.F,
        "G": point.record.G,
        "H": point.record.H,
        "success": point.success_rate,
        "objective": point.objective,
        "feasible": point.feasible,
    }


@pytest.mark.slow
class TestJobsInvariance:
    """Tuned points must be byte-identical for jobs=1 vs jobs=4 with
    speculation on, and across reruns — worker count and batch
    scheduling may change wall clock only."""

    PROFILE_KW = dict(
        name="jobs-invariance",
        base_resources=8,
        base_schedulers=4,
        fixed_resources=8,
        fixed_schedulers=4,
        base_rate_per_resource=0.00028,
        horizon=3000.0,
        drain=20000.0,
        scales=(1, 2),
        sa_iterations=3,
    )

    def _tuned_bytes(self, jobs):
        from repro.experiments.cases import get_case, make_batch_simulate, make_simulate
        from repro.experiments.config import ScaleProfile
        from repro.experiments.parallel import ExperimentEngine

        profile = ScaleProfile(**self.PROFILE_KW)
        case = get_case(1)
        with ExperimentEngine(jobs=jobs, cache=None) as engine:
            memo = {}
            simulate = make_simulate(
                case, "LOWEST", profile, seed=11, memo=memo, engine=engine
            )
            batch = make_batch_simulate(
                case, "LOWEST", profile, seed=11, memo=memo, engine=engine
            )
            procedure = ScalabilityProcedure(
                simulate,
                case.enabler_space(),
                path=case.path(profile),
                schedule=AnnealingSchedule(iterations=3, t0=0.5),
                seed=11,
                batch_simulate=batch,
                speculation=4,
                warm_start=True,
            )
            result = procedure.run(name="LOWEST")
        return json.dumps(
            [_point_fingerprint(p) for p in result.points], sort_keys=True
        ).encode()

    def test_jobs_1_vs_4_and_rerun_identical(self):
        serial = self._tuned_bytes(jobs=1)
        parallel = self._tuned_bytes(jobs=4)
        rerun = self._tuned_bytes(jobs=4)
        assert serial == parallel
        assert parallel == rerun
