"""Tests for arrival processes, runtime models, and workload generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngHub
from repro.workload import (
    BurstyArrivals,
    JobClass,
    JobSpec,
    PoissonArrivals,
    RuntimeModel,
    WorkloadGenerator,
)


def rng(seed=0, name="wl"):
    return RngHub(seed).stream(name)


class TestPoissonArrivals:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_empty_horizon(self):
        assert PoissonArrivals(1.0).times(0.0, rng()) == []

    def test_times_sorted_within_horizon(self):
        ts = PoissonArrivals(0.5).times(1000.0, rng())
        assert ts == sorted(ts)
        assert all(0 <= t < 1000.0 for t in ts)

    def test_rate_statistics(self):
        ts = PoissonArrivals(2.0).times(5000.0, rng(1))
        # Expect ~10000 arrivals; 5 sigma band.
        assert abs(len(ts) - 10000) < 5 * np.sqrt(10000)

    def test_interarrival_mean(self):
        ts = np.array(PoissonArrivals(1.0).times(20000.0, rng(2)))
        gaps = np.diff(ts)
        assert np.mean(gaps) == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = PoissonArrivals(1.0).times(100.0, rng(3))
        b = PoissonArrivals(1.0).times(100.0, rng(3))
        assert a == b


class TestBurstyArrivals:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BurstyArrivals(0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, mean_quiet=0.0)

    def test_times_sorted_within_horizon(self):
        ts = BurstyArrivals(0.2, burst_factor=10.0).times(2000.0, rng(4))
        assert ts == sorted(ts)
        assert all(0 <= t < 2000.0 for t in ts)

    def test_bursts_raise_volume(self):
        quiet = len(PoissonArrivals(0.2).times(20000.0, rng(5)))
        bursty = len(
            BurstyArrivals(0.2, burst_factor=10.0, mean_quiet=300, mean_burst=300).times(
                20000.0, rng(5, "b")
            )
        )
        assert bursty > 1.5 * quiet


class TestRuntimeModel:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RuntimeModel(median=0.0)
        with pytest.raises(ValueError):
            RuntimeModel(sigma=0.0)
        with pytest.raises(ValueError):
            RuntimeModel(min_runtime=0.0)
        with pytest.raises(ValueError):
            RuntimeModel(request_pad_lo=0.5)
        with pytest.raises(ValueError):
            RuntimeModel(request_pad_lo=3.0, request_pad_hi=2.0)

    def test_runtimes_positive_above_floor(self):
        m = RuntimeModel(min_runtime=5.0)
        xs = m.sample_runtimes(1000, rng(6))
        assert (xs >= 5.0).all()

    def test_median_roughly_right(self):
        m = RuntimeModel(median=430.0, sigma=1.1)
        xs = m.sample_runtimes(40000, rng(7))
        assert np.median(xs) == pytest.approx(430.0, rel=0.05)

    def test_mean_formula(self):
        m = RuntimeModel(median=430.0, sigma=1.1)
        xs = m.sample_runtimes(200000, rng(8))
        assert np.mean(xs) == pytest.approx(m.mean, rel=0.05)

    def test_requested_upper_bounds_runtime(self):
        m = RuntimeModel()
        runs = m.sample_runtimes(500, rng(9))
        reqs = m.sample_requested(runs, rng(9, "req"))
        assert (reqs >= runs).all()
        assert (reqs <= 3.0 * runs + 1e-9).all()

    def test_remote_fraction_matches_empirical(self):
        m = RuntimeModel(median=430.0, sigma=1.1)
        xs = m.sample_runtimes(100000, rng(10))
        emp = np.mean(xs > 700.0)
        assert emp == pytest.approx(m.remote_fraction(700.0), abs=0.01)

    def test_remote_fraction_monotone_in_threshold(self):
        m = RuntimeModel()
        assert m.remote_fraction(100.0) > m.remote_fraction(700.0) > m.remote_fraction(5000.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            RuntimeModel().sample_runtimes(-1, rng())


class TestWorkloadGenerator:
    def make(self, rate=0.05, clusters=4, **kw):
        return WorkloadGenerator(rate=rate, n_clusters=clusters, **kw)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(rate=1.0, n_clusters=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(rate=1.0, n_clusters=1, t_cpu=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(rate=1.0, n_clusters=1, benefit_lo=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(rate=1.0, n_clusters=1, benefit_lo=5.0, benefit_hi=2.0)

    def test_job_ids_dense_and_sorted(self):
        jobs = self.make().generate(5000.0, rng(11))
        assert [j.job_id for j in jobs] == list(range(len(jobs)))
        assert all(
            jobs[i].arrival_time <= jobs[i + 1].arrival_time for i in range(len(jobs) - 1)
        )

    def test_classification_threshold(self):
        jobs = self.make().generate(20000.0, rng(12))
        for j in jobs:
            expected = JobClass.LOCAL if j.execution_time <= 700.0 else JobClass.REMOTE
            assert j.job_class == expected

    def test_both_classes_present(self):
        jobs = self.make().generate(20000.0, rng(13))
        classes = {j.job_class for j in jobs}
        assert classes == {JobClass.LOCAL, JobClass.REMOTE}

    def test_benefit_factors_in_table1_range(self):
        jobs = self.make().generate(10000.0, rng(14))
        assert all(2.0 <= j.benefit_factor <= 5.0 for j in jobs)
        assert all(j.benefit_bound == j.benefit_factor * j.execution_time for j in jobs)

    def test_partition_size_fixed_at_one(self):
        jobs = self.make().generate(2000.0, rng(15))
        assert all(j.partition_size == 1 for j in jobs)

    def test_submit_clusters_cover_all(self):
        jobs = self.make(clusters=4).generate(20000.0, rng(16))
        assert {j.submit_cluster for j in jobs} == {0, 1, 2, 3}

    def test_requested_bounds_execution(self):
        jobs = self.make().generate(5000.0, rng(17))
        assert all(j.requested_time >= j.execution_time for j in jobs)

    def test_offered_load_formula(self):
        g = self.make(rate=0.1)
        assert g.offered_load(1000.0) == pytest.approx(0.1 * 1000.0 * g.runtime_model.mean)

    def test_deterministic(self):
        a = self.make().generate(3000.0, rng(18))
        b = self.make().generate(3000.0, rng(18))
        assert a == b

    def test_empty_horizon_gives_no_jobs(self):
        assert self.make().generate(0.0, rng(19)) == []

    @pytest.mark.parametrize("seed", [0, 7, 11, 100, 4242])
    @pytest.mark.parametrize("max_partition", [1, 8])
    def test_bulk_conversion_matches_per_element_reference(self, seed, max_partition):
        gen = self.make(rate=0.2, clusters=5, max_partition=max_partition)
        got = gen.generate(4000.0, rng(seed))
        want = reference_generate(gen, 4000.0, rng(seed))
        assert len(got) > 100
        assert got == want
        for a, b in zip(got, want):
            assert [type(v) for v in vars(a).values()] == [type(v) for v in vars(b).values()]


def reference_generate(gen, horizon, r):
    """The per-element formulation ``WorkloadGenerator.generate`` had
    before its bulk ``tolist`` conversions: same draws, same order, one
    numpy scalar conversion per field per job."""
    times = gen.arrivals.times(horizon, r)
    n = len(times)
    if n == 0:
        return []
    runtimes = gen.runtime_model.sample_runtimes(n, r)
    requested = gen.runtime_model.sample_requested(runtimes, r)
    benefits = r.uniform(gen.benefit_lo, gen.benefit_hi, size=n)
    clusters = r.integers(0, gen.n_clusters, size=n)
    if gen.max_partition > 1:
        max_exp = int(np.floor(np.log2(gen.max_partition)))
        exps = r.integers(0, max_exp + 1, size=n)
        partitions = np.minimum(2**exps, gen.max_partition)
    else:
        partitions = np.ones(n, dtype=int)
    return [
        JobSpec(
            job_id=i,
            arrival_time=float(times[i]),
            execution_time=float(runtimes[i]),
            requested_time=float(requested[i]),
            benefit_factor=float(benefits[i]),
            submit_cluster=int(clusters[i]),
            job_class=(
                JobClass.LOCAL if runtimes[i] <= gen.t_cpu else JobClass.REMOTE
            ),
            partition_size=int(partitions[i]),
        )
        for i in range(n)
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.01, max_value=0.5),
    clusters=st.integers(min_value=1, max_value=8),
)
def test_workload_invariants(seed, rate, clusters):
    """Every generated job satisfies the model's structural contract."""
    jobs = WorkloadGenerator(rate=rate, n_clusters=clusters).generate(2000.0, rng(seed))
    for j in jobs:
        assert j.execution_time > 0
        assert j.requested_time >= j.execution_time
        assert 0 <= j.submit_cluster < clusters
        assert 0 <= j.arrival_time < 2000.0
        assert j.job_class in (JobClass.LOCAL, JobClass.REMOTE)
