"""Golden snapshot of the CLI surface (every subcommand's flags).

The shared-parent refactor must not silently drop, rename, or retype a
flag, so the *structured* parser metadata — option strings, metavars,
choices, defaults — is snapshotted per subcommand in
``tests/data/cli_surface.json``.  Snapshotting structure instead of
rendered ``--help`` text keeps the golden file stable across argparse
formatting changes between Python versions.

On a deliberate surface change, regenerate with::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_cli_surface.py
"""

import argparse
import json
import os
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser

SNAPSHOT = Path(__file__).parent / "data" / "cli_surface.json"


def _action_surface(action):
    """The stable identity of one argparse action."""
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "metavar": action.metavar,
        "choices": None if action.choices is None else sorted(map(str, action.choices)),
        "nargs": None if action.nargs is None else str(action.nargs),
        "type": getattr(action.type, "__name__", None) if action.type else None,
        "default": repr(action.default),
        "required": bool(action.required),
        "kind": type(action).__name__,
    }


def _subparsers_of(parser):
    return next(
        (a for a in parser._actions
         if isinstance(a, argparse._SubParsersAction)),
        None,
    )


def _parser_surface(parser):
    surface = {
        "arguments": [
            _action_surface(a)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        ]
    }
    sub = _subparsers_of(parser)
    if sub is not None:
        surface["subcommands"] = {
            name: _parser_surface(p) for name, p in sub.choices.items()
        }
    return surface


def current_surface():
    return _parser_surface(build_parser())


class TestSurfaceSnapshot:
    def test_surface_matches_snapshot(self):
        surface = current_surface()
        if os.environ.get("REPRO_UPDATE_SNAPSHOTS"):
            SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
            SNAPSHOT.write_text(
                json.dumps(surface, indent=1, sort_keys=True) + "\n", "utf-8"
            )
        assert SNAPSHOT.exists(), (
            "no golden snapshot — generate one with REPRO_UPDATE_SNAPSHOTS=1"
        )
        golden = json.loads(SNAPSHOT.read_text("utf-8"))
        assert surface == golden, (
            "CLI surface drifted from tests/data/cli_surface.json; if the "
            "change is deliberate, regenerate with REPRO_UPDATE_SNAPSHOTS=1"
        )

    def test_every_simulation_subcommand_shares_the_engine_flags(self):
        """The shared-parent contract: the engine/execution flags exist,
        spelled identically, on every simulation-running subcommand."""
        shared = {
            "--jobs", "--no-cache", "--cache-dir", "--telemetry",
            "--telemetry-dir", "--flight-recorder", "--flight-dir",
            "--traffic-mode", "--aggregator-fanout",
        }
        study = {"--rms", "--seed"}
        sub = _subparsers_of(build_parser())
        for name in ("figure", "compare", "faults", "series", "trace", "submit"):
            options = {
                opt
                for action in sub.choices[name]._actions
                for opt in action.option_strings
            }
            missing = (shared | study) - options
            assert not missing, f"`repro {name}` lacks shared flags: {sorted(missing)}"

    def test_engine_defaults_come_from_the_spec(self):
        """Parser defaults cannot drift from StudySpec defaults."""
        import dataclasses

        from repro.experiments.spec import StudySpec

        spec_defaults = {f.name: f.default for f in dataclasses.fields(StudySpec)}
        sub = _subparsers_of(build_parser())
        fig = sub.choices["figure"]
        for action in fig._actions:
            if action.dest in ("jobs", "cache_dir", "traffic_mode",
                               "aggregator_fanout", "seed"):
                assert action.default == spec_defaults[action.dest], action.dest

    @pytest.mark.parametrize(
        "name",
        ["figure", "compare", "faults", "series", "trace",
         "serve", "work", "submit", "knobs", "watch",
         "bench-perf", "bench-check", "attrib", "telemetry", "list"],
    )
    def test_help_renders(self, name):
        """Smoke: every subcommand's --help text renders and names its
        long options (the human-facing half of the snapshot)."""
        sub = _subparsers_of(build_parser())
        parser = sub.choices[name]
        text = parser.format_help()
        for action in parser._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text
