"""The shared plan-study pipeline: passive-plan payloads and fluid churn.

Passive monitor and trace plans share a cache key with plain runs by
design: they change nothing the run computes except the payload they
record.  Runs under *different* passive plans therefore share a key
while recording different payloads — a 25-unit probe interval sweeps
twice as often as a 50-unit one.  These tests pin that neither the
engine's in-batch dedup, nor the run cache, nor the fabric's lease
board hands one plan's payload to another.

The fluid half pins that a churn study under the fluid traffic model
checkpoints under its own manifest key and that ``--events-out`` dumps
the fluid run the study actually executed.  A bad plan knob of any
plan study is a one-line error before anything runs.
"""

import json
import threading

import pytest

from repro.experiments import cli
from repro.experiments.cases import get_case
from repro.experiments.config import PROFILES, ScaleProfile
from repro.experiments.faultstudy import default_churn_plan
from repro.experiments.parallel import ExperimentEngine, metrics_json_bytes
from repro.experiments.parallel.cache import RunCache
from repro.experiments.parallel.hashing import config_key
from repro.experiments.planstudy import run_plan_study
from repro.experiments.runner import build_system, run_simulation
from repro.fabric import Coordinator, Worker
from repro.fabric.coordinator import FabricEngine
from repro.fluid.plan import ENV_TRAFFIC_MODE, resolve_fluid_plan
from repro.telemetry.timeseries import MonitorPlan
from repro.telemetry.tracing import TracePlan

#: a miniature profile: a real multi-scale study at unit-test cost
TINY = ScaleProfile(
    name="tiny",
    base_resources=6,
    base_schedulers=2,
    fixed_resources=6,
    fixed_schedulers=2,
    base_rate_per_resource=0.0008,
    horizon=1500.0,
    drain=4000.0,
    scales=(1, 2),
    sa_iterations=1,
)


def probes(interval: float) -> MonitorPlan:
    """A passive plan: streams and free probes every ``interval``."""
    return MonitorPlan(series=True, probe_interval=interval)


def tiny_config(**plans):
    return get_case(1).config_for("LOWEST", 1, TINY, seed=7, **plans)


class TestPassivePlans:
    def test_passive_sweep_keeps_every_interval_through_the_engine(self, tmp_path):
        kwargs = dict(profile=TINY, rms=["LOWEST", "CENTRAL"], sweep_intervals=[25.0, 100.0])
        inline = run_plan_study("series", probes(50.0), **kwargs)
        with ExperimentEngine(jobs=1, cache=RunCache(tmp_path)) as engine:
            batched = run_plan_study("series", probes(50.0), engine=engine, **kwargs)
        for interval in (25.0, 50.0, 100.0):
            for name in ("LOWEST", "CENTRAL"):
                assert metrics_json_bytes(batched.sweep[interval][name].metrics) == (
                    metrics_json_bytes(inline.sweep[interval][name].metrics)
                )
        sweeps = [batched.sweep[i]["LOWEST"].series["sweeps"] for i in (25.0, 50.0, 100.0)]
        assert sweeps[0] == 2 * sweeps[1] == 4 * sweeps[2] > 0

    def test_a_cached_stream_is_not_served_to_another_passive_plan(self, tmp_path):
        first, second = tiny_config(monitor=probes(50.0)), tiny_config(monitor=probes(25.0))
        assert config_key(first) == config_key(second)
        with ExperimentEngine(jobs=1, cache=RunCache(tmp_path)) as engine:
            engine.run(first)
        cache = RunCache(tmp_path)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            got = engine.run(second)
        assert (cache.hits, cache.misses) == (0, 1)
        assert metrics_json_bytes(got) == metrics_json_bytes(run_simulation(second))

        # the entry now carries the 25-unit stream, and serves it again
        again = RunCache(tmp_path)
        assert metrics_json_bytes(again.get(second)) == metrics_json_bytes(got)
        assert again.get(first) is None

    def test_a_cached_trace_is_not_served_to_another_sample_rate(self, tmp_path):
        full = tiny_config(trace=TracePlan(sample=1.0, charge_rate=0.0))
        quarter = tiny_config(trace=TracePlan(sample=0.25, charge_rate=0.0))
        with ExperimentEngine(jobs=1, cache=RunCache(tmp_path)) as engine:
            engine.run(full)
            got = engine.run(quarter)
        fresh = run_simulation(quarter)
        assert got.trace["sampled"] == fresh.trace["sampled"]
        assert fresh.trace["sampled"] < run_simulation(full).trace["sampled"]
        assert metrics_json_bytes(got) == metrics_json_bytes(fresh)

    def test_plain_entries_keep_their_bytes(self, tmp_path):
        plain, observed = tiny_config(), tiny_config(monitor=probes(50.0))
        cache = RunCache(tmp_path)
        cache.put(plain, run_simulation(plain))
        entry = json.loads(cache.path_for(config_key(plain)).read_bytes())
        assert set(entry) == {"version", "metrics"}

        cache.put(observed, run_simulation(observed))
        entry = json.loads(cache.path_for(config_key(observed)).read_bytes())
        assert entry["plans"] == {"monitor": {
            "series": True, "window": 0, "max_windows": 256,
            "probe_interval": 50, "charge_rate": 0,
        }}
        # an entry with a stream still serves a plain config
        assert cache.get(plain) is not None

    def test_fabric_runs_both_misses_that_share_a_cache_key(self, tmp_path):
        configs = [tiny_config(monitor=probes(i)) for i in (50.0, 25.0)]
        with Coordinator(port=0, heartbeat_timeout=10.0) as coord:
            worker = Worker(coord.address, heartbeat_interval=0.1, worker_id="w0")
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            engine = FabricEngine(coord, cache=RunCache(tmp_path))
            try:
                got = engine.run_many(configs)
            finally:
                worker.stop()
                thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert worker.leases_executed == 2
        for metrics, config in zip(got, configs):
            assert metrics_json_bytes(metrics) == metrics_json_bytes(run_simulation(config))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["faults", "--mttf", "-5"], "resource_mttf must be positive"),
        (["series", "--charge-rate", "-1"], "charge_rate must be finite and >= 0"),
    ],
)
def test_a_bad_plan_knob_is_a_one_line_error(argv, message, tmp_path, capsys):
    """Every plan study resolves its plan before running, as ``repro
    trace`` always did (``test_tracestudy.py`` covers that one)."""
    assert cli.main(argv + ["--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "manifests").exists()


class TestFluidChurn:
    CI = PROFILES["ci"]

    def churn_config(self, **plans):
        return get_case(1).config_for(
            "LOWEST", self.CI.scales[0], self.CI, seed=7,
            faults=default_churn_plan(self.CI), **plans,
        )

    @staticmethod
    def fault_events(config):
        system = build_system(config)
        system.sim.run(until=config.horizon + config.drain)
        return json.loads(json.dumps(system.injector.events))

    def test_events_out_dumps_the_fluid_run_and_keys_it_apart(self, tmp_path, monkeypatch):
        common = ["faults", "--rms", "LOWEST", "--jobs", "1", "--cache-dir", str(tmp_path)]
        events = tmp_path / "events.jsonl"
        for mode in ("fluid", "discrete"):
            # a fluid run exports its mode for pool workers; restored afterwards
            monkeypatch.setenv(ENV_TRAFFIC_MODE, mode)
            argv = common + ["--traffic-mode", mode]
            if mode == "fluid":
                argv += ["--events-out", str(events)]
            assert cli.main(argv) == 0

        dumped = [json.loads(line) for line in events.read_text().splitlines()]
        fluid = self.fault_events(self.churn_config(fluid=resolve_fluid_plan(mode="fluid")))
        assert dumped == fluid
        assert dumped != self.fault_events(self.churn_config())

        manifest = json.loads((tmp_path / "manifests" / "faults.json").read_text())
        keys = sorted(manifest["completed"])
        assert len(keys) == 2
        fluid_key, discrete_key = sorted(keys, key=lambda k: ":fluid" not in k)
        assert ":fluidfluid-fan0:case1:LOWEST" in fluid_key
        assert discrete_key == fluid_key.replace(":fluidfluid-fan0", "")
        fluid_g = manifest["completed"][fluid_key]["result"]["points"][0]["record"]["G"]
        discrete_g = manifest["completed"][discrete_key]["result"]["points"][0]["record"]["G"]
        assert fluid_g != discrete_g
