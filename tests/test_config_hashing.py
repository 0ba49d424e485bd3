"""Property-based tests for the content-addressed config hash.

The run cache keys on ``config_key(config)``; these properties are what
make that key safe to persist:

* invariance — field/dict ordering and construction path never change
  the key;
* sensitivity — every semantic field (including nested cost-model and
  Table-1 constants) changes the key;
* stability — the key does not depend on ``PYTHONHASHSEED``, the
  process, or the interpreter session.
"""

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import SimulationConfig
from repro.experiments.config import CommonParameters
from repro.experiments.parallel import (
    CONDITIONAL_PROVENANCE_FIELDS,
    PROVENANCE_FIELDS,
    canonical_config,
    config_key,
)
from repro.grid.costs import CostModel


def base_config(**kw):
    kw.setdefault("rms", "LOWEST")
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    return SimulationConfig(**kw)


#: the enabler settings grid `with_enablers` accepts
_ENABLERS = {
    "update_interval": 12.5,
    "neighborhood_size": 3,
    "link_delay_scale": 1.6,
    "volunteer_interval": 80.0,
}


class TestInvariance:
    @settings(max_examples=50, deadline=None)
    @given(order=st.permutations(sorted(_ENABLERS)))
    def test_settings_dict_order_irrelevant(self, order):
        """`with_enablers` applied in any dict order yields one key."""
        shuffled = {name: _ENABLERS[name] for name in order}
        reference = base_config().with_enablers(dict(sorted(_ENABLERS.items())))
        permuted = base_config().with_enablers(shuffled)
        assert config_key(permuted) == config_key(reference)

    def test_construction_path_irrelevant(self):
        direct = base_config(update_interval=12.5, seed=3)
        via_replace = replace(base_config(seed=99), update_interval=12.5, seed=3)
        assert config_key(direct) == config_key(via_replace)

    def test_int_vs_float_literal_irrelevant(self):
        """2 and 2.0 describe the same run; they must share a key."""
        assert config_key(base_config(service_rate=2)) == config_key(
            base_config(service_rate=2.0)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_schedulers=st.integers(1, 6),
        rate=st.floats(1e-4, 1e-2, allow_nan=False),
    )
    def test_equal_configs_equal_keys(self, seed, n_schedulers, rate):
        a = base_config(seed=seed, n_schedulers=n_schedulers, workload_rate=rate)
        b = base_config(seed=seed, n_schedulers=n_schedulers, workload_rate=rate)
        assert config_key(a) == config_key(b)


#: (field, changed value) pairs covering every top-level semantic field
_FIELD_CHANGES = [
    ("rms", "CENTRAL"),
    ("n_schedulers", 4),
    ("n_resources", 12),
    ("workload_rate", 0.005),
    ("service_rate", 2.0),
    ("n_estimators", 5),
    ("l_p", 3),
    ("update_interval", 13.0),
    ("neighborhood_size", 5),
    ("link_delay_scale", 1.6),
    ("volunteer_interval", 240.0),
    ("horizon", 4000.0),
    ("drain", 5000.0),
    ("seed", 8),
    ("loss_probability", 0.1),
    ("estimator_batch_window", 15.0),
    ("dependency_prob", 0.2),
    ("max_parents", 3),
    ("dependency_window", 12),
]


class TestSensitivity:
    @pytest.mark.parametrize("field,value", _FIELD_CHANGES)
    def test_any_field_change_changes_key(self, field, value):
        before = base_config()
        if field == "loss_probability":
            with pytest.warns(DeprecationWarning, match="loss_probability is deprecated"):
                after = replace(before, **{field: value})
        else:
            after = replace(before, **{field: value})
        assert config_key(after) != config_key(before)

    def test_nested_cost_change_changes_key(self):
        before = base_config()
        after = replace(before, costs=CostModel(update_proc=5.0))
        assert config_key(after) != config_key(before)

    def test_nested_common_change_changes_key(self):
        before = base_config()
        after = replace(before, common=CommonParameters(t_cpu=650.0))
        assert config_key(after) != config_key(before)

    @settings(max_examples=30, deadline=None)
    @given(pair=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)))
    def test_distinct_seeds_distinct_keys(self, pair):
        a, b = pair
        keys = config_key(base_config(seed=a)), config_key(base_config(seed=b))
        assert (keys[0] == keys[1]) == (a == b)


class TestCrossProcessStability:
    def test_key_stable_under_hash_randomization(self):
        """The key must be identical in fresh interpreters started with
        different ``PYTHONHASHSEED`` values (no reliance on built-in
        string hashing)."""
        import repro

        src_root = str(Path(repro.__file__).parents[1])
        script = (
            "from repro.experiments import SimulationConfig\n"
            "from repro.experiments.parallel import config_key\n"
            "c = SimulationConfig(rms='LOWEST', n_schedulers=3, n_resources=9,\n"
            "                     workload_rate=0.004, update_interval=12.5)\n"
            "print(config_key(c))\n"
        )
        keys = []
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src_root)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            keys.append(proc.stdout.strip())
        in_process = config_key(base_config(update_interval=12.5))
        assert keys[0] == keys[1] == in_process

    def test_canonical_form_is_json_round_trippable(self):
        canon = canonical_config(base_config())
        assert canon == json.loads(json.dumps(canon))

    def test_canonical_form_covers_every_field(self):
        """No config field may *silently* escape the hash.

        Every field is either hashed, explicitly declared provenance
        (recorded alongside results but excluded from the key — e.g.
        ``kernel_backend``, whose backends are bit-identical by
        contract, so one cached result serves all of them), or declared
        *conditionally* provenance (``monitor``: dropped while passive,
        hashed once it charges).
        """
        canon = canonical_config(base_config())
        declared = PROVENANCE_FIELDS | CONDITIONAL_PROVENANCE_FIELDS
        for f in dataclasses.fields(SimulationConfig):
            assert f.name in canon or f.name in declared

    def test_conditional_provenance_hashes_when_active(self):
        """An active monitor plan is semantics, not provenance."""
        from repro.telemetry.timeseries import MonitorPlan

        active = replace(
            base_config(),
            monitor=MonitorPlan(probe_interval=10.0, charge_rate=0.5),
        )
        assert "monitor" in canonical_config(active)
        assert config_key(active) != config_key(base_config())

    def test_provenance_fields_excluded_from_hash(self):
        """Declared provenance fields never perturb the key."""
        canon = canonical_config(base_config())
        for name in PROVENANCE_FIELDS:
            assert name not in canon
        ref = config_key(base_config())
        assert config_key(replace(base_config(), kernel_backend="fast")) == ref
        assert config_key(replace(base_config(), kernel_backend="reference")) == ref
