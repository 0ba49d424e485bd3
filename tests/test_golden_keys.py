"""Golden run-cache keys and study digest, pinned as hex literals.

Every persisted cache entry, manifest point and fabric result is found
again by these digests.  A refactor of the config dataclasses or of the
hashing layer (dropping a field, moving a default) must leave them
bit-identical unless ``CACHE_SCHEMA_VERSION`` is bumped on purpose, so
the values below are literals, not recomputed from the code under test.
"""

from dataclasses import replace

import pytest

from repro.experiments import SimulationConfig
from repro.experiments.parallel import config_key
from repro.experiments.spec import StudySpec, spec_digest
from repro.faults import FaultPlan
from repro.fluid.plan import FluidPlan
from repro.telemetry.timeseries import MonitorPlan
from repro.telemetry.tracing import TracePlan


def base_config():
    return SimulationConfig(rms="LOWEST", n_schedulers=3, n_resources=9, workload_rate=0.004)


_GOLDEN_KEYS = {
    "base": (
        {},
        "49953e2fd2232837cefd010830c47a4f7c44a3bb613973dda1bb5e66e8fe4261",
    ),
    "faults": (
        {"faults": FaultPlan(resource_mttf=900.0, resource_mttr=90.0, link_loss=0.05)},
        "df310a48dbd77412196b55a0e0e253487c31e5ccdff76dcc13ce2106aa12029e",
    ),
    "fluid": (
        {"fluid": FluidPlan(mode="fluid", aggregator_fanout=4)},
        "b06b811f733d72b4d8becdb7892524824b242d9b98696720469e86c2c74f6a03",
    ),
    "monitor": (
        {"monitor": MonitorPlan(probe_interval=10.0, charge_rate=0.5)},
        "919c0cfa00ceace5e46401c7dfee4dd179f9735c75b8f80d228229e57ac7c3a7",
    ),
    "trace": (
        {"trace": TracePlan(sample=0.5, charge_rate=0.02)},
        "d03ecec9311076a201fff7dfdb82ecb4e1cb4a756642eed508dd976c76185bea",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_KEYS))
def test_config_key_is_golden(name):
    changes, expected = _GOLDEN_KEYS[name]
    assert config_key(replace(base_config(), **changes)) == expected


def test_spec_digest_is_golden():
    spec = StudySpec(
        kind="compare",
        seed=11,
        rms=("LOWEST", "CENTRAL"),
        faults=FaultPlan(resource_mttf=900.0, resource_mttr=90.0),
    )
    assert spec_digest(spec) == (
        "cec1f959f947aff49a7366442c143f0d78f174911ca1415546ffe817b56f2e97"
    )
