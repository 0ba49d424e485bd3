"""Golden outputs of the three plan studies, pinned as digests.

``repro faults``, ``repro series`` and ``repro trace`` run the same
Case-1 procedure under a churn, monitor or trace plan.  A refactor of
that pipeline must leave everything a user reads or a later command
parses byte-identical: the printed report, the study manifest, and the
CSV / JSONL / Prometheus exports.  Each study runs once through the CLI
(ci profile, LOWEST and CENTRAL, seed 7, one process, a fresh cache)
and every artifact is hashed; the temporary directory is replaced by a
placeholder so the digests do not depend on where the test runs.

The series study uses an active sweep (nonzero charge rate), so every
sweep point has its own cache key.  The module takes a few seconds.
"""

import hashlib
import os

import pytest

from repro.experiments import cli

COMMON = ["--profile", "ci", "--rms", "LOWEST,CENTRAL", "--seed", "7", "--jobs", "1"]

#: study -> (extra CLI flags, export flags it takes)
STUDIES = {
    "faults": ([], ()),
    "series": (["--probe-interval", "30,60,120", "--charge-rate", "0.05"],
               ("csv", "jsonl", "prom")),
    "trace": ([], ("csv", "jsonl", "prom")),
}

#: study -> artifact -> sha256[:16] of its bytes
_GOLDEN = {
    "faults": {
        "report": "a1f2072d494b0fec",
        "manifest": "9463b330227fb0a0",
    },
    "series": {
        "report": "183e722ac18f0b1e",
        "manifest": "371354f7dfedf4a6",
        "csv": "d964b0f5c0a5d6df",
        "jsonl": "dbfb0c2cf170a131",
        "prom": "61ebef6bd7d6298d",
    },
    "trace": {
        "report": "cb5b5cec10abe639",
        "manifest": "576a44dbae7ab94d",
        "csv": "084d671c148b732f",
        "jsonl": "b1c0155e8aff0086",
        "prom": "0e14512ba72e5021",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_outputs_are_golden(study, tmp_path, monkeypatch, capsys):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    flags, exports = STUDIES[study]
    argv = [study, *COMMON, *flags, "--cache-dir", str(tmp_path / "cache")]
    for ext in exports:
        argv += [f"--{ext}", str(tmp_path / f"out.{ext}")]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")

    got = {
        "report": _digest(report.encode("utf-8")),
        "manifest": _digest(
            (tmp_path / "cache" / "manifests" / f"{study}.json").read_bytes()
        ),
    }
    for ext in exports:
        got[ext] = _digest((tmp_path / f"out.{ext}").read_bytes())
    assert got == _GOLDEN[study]
