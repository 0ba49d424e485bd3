"""Evaluation harness: experiment cases, runner, reproduction drivers."""

from .cases import CASES, ExperimentCase, get_case, make_batch_simulate, make_simulate
from .config import PROFILES, CommonParameters, ScaleProfile, SimulationConfig
from .replication import MetricSummary, ReplicationResult, replicate
from .reporting import ascii_plot, figure_report, format_table, write_csv
from .reproduce import (
    FigureData,
    RMSSeries,
    Study,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from .faultstudy import default_churn_plan, fault_report
from .inspect import inspection_report
from .parallel import ExperimentEngine, RunCache, StudyManifest, config_key
from .summary import CaseSummary, study_report, summarize_case
from .runner import RunMetrics, System, build_system, run_simulation, summarize

__all__ = [
    "CASES",
    "ExperimentEngine",
    "RunCache",
    "StudyManifest",
    "config_key",
    "CommonParameters",
    "ExperimentCase",
    "FigureData",
    "PROFILES",
    "RMSSeries",
    "MetricSummary",
    "ReplicationResult",
    "RunMetrics",
    "ScaleProfile",
    "SimulationConfig",
    "CaseSummary",
    "Study",
    "System",
    "ascii_plot",
    "build_system",
    "default_churn_plan",
    "fault_report",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure_report",
    "inspection_report",
    "format_table",
    "get_case",
    "make_batch_simulate",
    "make_simulate",
    "replicate",
    "run_simulation",
    "study_report",
    "summarize",
    "summarize_case",
    "write_csv",
]
