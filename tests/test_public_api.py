"""Public-API surface tests: imports, __all__ hygiene, docstrings.

A downstream user's first contact is ``import repro`` and tab
completion; every name a package advertises must exist, and every
public item must carry documentation (deliverable (e)).
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.topology",
    "repro.network",
    "repro.grid",
    "repro.workload",
    "repro.rms",
    "repro.faults",
    "repro.experiments",
    "repro.experiments.parallel",
    "repro.fabric",
    "repro.telemetry",
]

MODULES = PACKAGES + [
    "repro.api",
    "repro.envknobs",
    "repro.core.annealing",
    "repro.core.efficiency",
    "repro.core.isoefficiency",
    "repro.core.ledger",
    "repro.core.models",
    "repro.core.procedure",
    "repro.core.scaling",
    "repro.core.slope",
    "repro.core.tuner",
    "repro.experiments.cases",
    "repro.experiments.cli",
    "repro.experiments.cliargs",
    "repro.experiments.config",
    "repro.experiments.faultstudy",
    "repro.experiments.seriesstudy",
    "repro.experiments.tabulate",
    "repro.experiments.watch",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.experiments.parallel.cache",
    "repro.experiments.parallel.engine",
    "repro.experiments.parallel.hashing",
    "repro.experiments.parallel.manifest",
    "repro.experiments.replication",
    "repro.experiments.reporting",
    "repro.experiments.reproduce",
    "repro.experiments.runner",
    "repro.experiments.spec",
    "repro.experiments.summary",
    "repro.fabric.client",
    "repro.fabric.coordinator",
    "repro.fabric.failure",
    "repro.fabric.leases",
    "repro.fabric.protocol",
    "repro.fabric.worker",
    "repro.grid.costs",
    "repro.grid.estimator",
    "repro.grid.jobs",
    "repro.grid.middleware",
    "repro.grid.resource",
    "repro.grid.scheduler",
    "repro.grid.status",
    "repro.network.messages",
    "repro.network.routing",
    "repro.network.transport",
    "repro.rms.auction",
    "repro.rms.base",
    "repro.rms.central",
    "repro.rms.extra",
    "repro.rms.lowest",
    "repro.rms.registry",
    "repro.rms.reserve",
    "repro.rms.ri",
    "repro.rms.si",
    "repro.rms.superscheduler",
    "repro.rms.syi",
    "repro.sim.entity",
    "repro.sim.fastkernel",
    "repro.sim.kernel",
    "repro.sim.monitor",
    "repro.sim.rng",
    "repro.sim.trace",
    "repro.telemetry.collectors",
    "repro.telemetry.profiler",
    "repro.telemetry.registry",
    "repro.telemetry.report",
    "repro.telemetry.spans",
    "repro.telemetry.timeseries",
    "repro.topology.generator",
    "repro.topology.graph",
    "repro.topology.grid_map",
    "repro.topology.paths",
    "repro.workload.arrivals",
    "repro.workload.dags",
    "repro.workload.generator",
    "repro.workload.runtimes",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    for item in exported:
        assert hasattr(mod, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(name)
    for item in getattr(mod, "__all__", []):
        obj = getattr(mod, item)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{name}.{item} lacks a docstring"


def test_version_string():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


#: the stable top-level surface — additions are deliberate API growth
#: (extend this list in the same change); removals/renames break
#: downstream users and fail here first.
TOP_LEVEL_API = [
    "ALL_RMS",
    "CostLedger",
    "FaultPlan",
    "RunMetrics",
    "ScalabilityProcedure",
    "SimulationConfig",
    "Study",
    "StudyResult",
    "StudySpec",
    "build_system",
    "get_rms",
    "rms_names",
    "run_simulation",
    "run_study",
    "spec_digest",
    "spec_from_jsonable",
    "spec_to_jsonable",
    "submit_study",
]


def test_top_level_reexports():
    """``import repro`` alone gives the documented entry points, and
    they are the same objects the subpackages define (no shadow copies)."""
    import repro
    from repro.api import StudyResult, run_study, submit_study
    from repro.core import CostLedger, ScalabilityProcedure
    from repro.experiments import RunMetrics, SimulationConfig, run_simulation
    from repro.experiments.spec import StudySpec, spec_digest
    from repro.faults import FaultPlan

    for name in TOP_LEVEL_API:
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__, f"repro.{name} not in __all__"
    assert repro.FaultPlan is FaultPlan
    assert repro.SimulationConfig is SimulationConfig
    assert repro.RunMetrics is RunMetrics
    assert repro.run_simulation is run_simulation
    assert repro.CostLedger is CostLedger
    assert repro.ScalabilityProcedure is ScalabilityProcedure
    assert repro.StudySpec is StudySpec
    assert repro.StudyResult is StudyResult
    assert repro.run_study is run_study
    assert repro.submit_study is submit_study
    assert repro.spec_digest is spec_digest


def test_top_level_surface_snapshot():
    """The advertised surface is exactly subpackages + TOP_LEVEL_API —
    any drift (addition or removal) must update this snapshot."""
    import repro

    subpackages = {
        "api", "core", "experiments", "fabric", "faults", "grid",
        "network", "rms", "sim", "telemetry", "topology", "workload",
    }
    assert set(repro.__all__) == subpackages | set(TOP_LEVEL_API)


def test_public_methods_documented_on_core_classes():
    """Spot-check deliverable (e) on the central public classes."""
    from repro.core import CostLedger, EnablerTuner, ScalabilityProcedure
    from repro.experiments import Study
    from repro.grid import Resource, SchedulerBase
    from repro.sim import Simulator

    for cls in (CostLedger, EnablerTuner, ScalabilityProcedure, Study, Simulator,
                Resource, SchedulerBase):
        assert inspect.getdoc(cls)
        for attr, member in vars(cls).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                assert inspect.getdoc(member), f"{cls.__name__}.{attr} undocumented"


def test_simulation_process_does_not_load_networkx():
    """networkx is a test-only dependency (``Topology.to_networkx``):
    importing the package and its API and running a simulation must not
    load it, so every simulation, pool worker and fabric worker stays
    free of its memory."""
    import repro

    script = (
        "import sys\n"
        "import repro, repro.api\n"
        "from repro.experiments import SimulationConfig, run_simulation\n"
        "run_simulation(SimulationConfig(rms='LOWEST', n_schedulers=2, n_resources=6,\n"
        "                                workload_rate=0.004, horizon=200.0, drain=200.0))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
