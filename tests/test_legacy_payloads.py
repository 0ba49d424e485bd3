"""Payloads written before the single-kernel change keep decoding.

Every study spec, wire config, run-cache entry and study manifest
written while the ``fast`` kernel backend existed carries a
``kernel_backend`` key, and every wire config also carries
``loss_probability: 0``.  The files under ``tests/data/legacy/`` were
captured from that code (the spec and config with
``kernel_backend="fast"``); these tests prove they still load, hash to
the same keys and resume without a simulation.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.config import config_from_jsonable, config_to_jsonable
from repro.experiments.parallel import RunCache, canonical_config, config_key
from repro.experiments.runner import run_simulation
from repro.experiments.reproduce import Study
from repro.experiments.spec import StudySpec, spec_from_jsonable

from test_manifest_resume import TINY

LEGACY = Path(__file__).parent / "data" / "legacy"
#: the legacy config's run-cache key, as the old code computed it
RUN_KEY = "d99a6eecdf8f6ff0f602b467c18d14018607ca7506c647ec0b28711b718eeed2"


def load(name):
    return json.loads((LEGACY / name).read_text("utf-8"))


class TestSpec:
    def test_legacy_spec_drops_kernel_backend(self):
        payload = load("spec.json")
        assert payload["kernel_backend"] == "fast"
        spec = spec_from_jsonable(payload)
        assert spec == StudySpec(kind="compare", seed=11, rms=("LOWEST",))


class TestConfig:
    def test_legacy_config_decodes_to_the_same_key(self):
        payload = load("config.json")
        assert payload["kernel_backend"] == "fast"
        assert payload["loss_probability"] == 0.0
        config = config_from_jsonable(payload)
        assert config_key(config) == RUN_KEY
        again = config_to_jsonable(config)
        assert "kernel_backend" not in again and "loss_probability" not in again
        assert config_from_jsonable(again) == config

    def test_retired_loss_probability_hashes_as_zero(self):
        config = config_from_jsonable(load("config.json"))
        assert canonical_config(config)["loss_probability"] == 0

    def test_nonzero_loss_probability_rejected(self):
        payload = dict(load("config.json"), loss_probability=0.1)
        with pytest.raises(ValueError, match="faults.link_loss"):
            config_from_jsonable(payload)

    def test_other_unknown_keys_still_rejected(self):
        payload = dict(load("config.json"), mystery=1)
        with pytest.raises(ValueError, match="mystery"):
            config_from_jsonable(payload)


def test_legacy_cache_entry_is_a_hit(tmp_path):
    config = config_from_jsonable(load("config.json"))
    entry = tmp_path / RUN_KEY[:2] / f"{RUN_KEY}.json"
    entry.parent.mkdir()
    shutil.copy(LEGACY / "run_entry.json", entry)
    assert load("run_entry.json")["kernel_backend"] == "fast"
    cache = RunCache(tmp_path)
    cached = cache.get(config)
    assert cache.hits == 1 and cache.errors == 0
    assert cached == run_simulation(config)


def test_legacy_manifest_resumes_without_simulating(tmp_path, monkeypatch):
    manifest = tmp_path / "study.json"
    shutil.copy(LEGACY / "manifest.json", manifest)
    (payload,) = load("manifest.json")["completed"].values()
    assert "kernel_backend" in payload
    study = Study(profile=TINY, rms=["LOWEST"], manifest_path=manifest)

    def refuse(*args, **kwargs):
        raise AssertionError("a completed point was re-measured")

    monkeypatch.setattr(study, "_measure", refuse)
    series = study.run_case(1)["LOWEST"]
    assert series.G == (7760.8, 16014.2)
