"""Environment-knob registry tests: precedence, typing, completeness.

The contract under test: every ``REPRO_*`` variable the source tree
consults is declared in one table, each lookup resolves as
``override > environment > default``, and falsiness is uniform.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import envknobs
from repro.envknobs import (
    KNOBS,
    get_bool,
    get_float,
    get_int,
    get_str,
    knob_rows,
    raw,
    render_knob_table,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestPrecedence:
    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert get_int("REPRO_JOBS", override=2, default=1) == 2

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert get_int("REPRO_JOBS", default=1) == 8

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert get_int("REPRO_JOBS", default=1) == 1

    def test_blank_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        assert raw("REPRO_CACHE_DIR") is None
        assert get_str("REPRO_CACHE_DIR", default="d") == "d"


class TestTyping:
    def test_malformed_int_names_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            get_int("REPRO_JOBS")

    def test_malformed_float_names_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIES_WINDOW", "wide")
        with pytest.raises(ValueError, match="REPRO_SERIES_WINDOW"):
            get_float("REPRO_SERIES_WINDOW")

    @pytest.mark.parametrize("word", ["0", "false", "No", "OFF"])
    def test_uniform_false_words(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_TELEMETRY", word)
        assert get_bool("REPRO_TELEMETRY") is False

    @pytest.mark.parametrize("word", ["1", "true", "yes", "on", "anything"])
    def test_everything_else_is_true(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_TELEMETRY", word)
        assert get_bool("REPRO_TELEMETRY") is True

    def test_undeclared_knob_raises(self):
        with pytest.raises(KeyError, match="REPRO_BOGUS"):
            raw("REPRO_BOGUS")


class TestRegistryCompleteness:
    def test_every_source_mention_is_declared(self):
        """Grep the tree: any REPRO_* literal must be a declared knob."""
        mentioned = set()
        for path in SRC.rglob("*.py"):
            for name in re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text("utf-8")):
                # doc wildcards like "REPRO_TRACE_*" leave a trailing _
                if not name.endswith("_"):
                    mentioned.add(name)
        undeclared = {m for m in mentioned if m not in KNOBS}
        assert not undeclared, f"undeclared REPRO_* knobs in source: {sorted(undeclared)}"

    def test_no_direct_environ_reads_of_knobs(self):
        """In-tree modules resolve knobs through envknobs, not os.environ.

        (Writes — exporting ambience to engine subprocesses — are fine;
        this guards reads: ``os.environ.get("REPRO_...`` and
        ``os.environ["REPRO_...]`` on the right-hand side.)
        """
        offenders = []
        for path in SRC.rglob("*.py"):
            if path.name == "envknobs.py":
                continue
            text = path.read_text("utf-8")
            if re.search(r"os\.environ\.get\(\s*[\"']REPRO_", text):
                offenders.append(str(path))
        assert not offenders, f"direct REPRO_* env reads: {offenders}"

    def test_table_renders_every_knob(self):
        table = render_knob_table()
        for env in KNOBS:
            assert env in table
        assert "precedence" in table

    def test_rows_match_table(self):
        rows = knob_rows()
        assert len(rows) == len(KNOBS)
        assert all(len(r) == 5 for r in rows)


class TestKnobsCli:
    def test_repro_knobs_prints_the_table(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "knobs"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "REPRO_JOBS" in proc.stdout
        assert "precedence" in proc.stdout
