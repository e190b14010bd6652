"""Experiment orchestration: configs, runs, sweeps, rate fits, CLI."""

from .config import ExperimentConfig
from .emit import CSV_HEADER, emit_csv, emit_plot
from .rates import fit_rate, measure_frequency
from .run import (RunRecord, SweepResult, oracle_compare, run_single,
                  run_sweep)
from .cli import build_parser, main

__all__ = [
    "ExperimentConfig",
    "CSV_HEADER",
    "emit_csv",
    "emit_plot",
    "fit_rate",
    "measure_frequency",
    "RunRecord",
    "SweepResult",
    "oracle_compare",
    "run_single",
    "run_sweep",
    "build_parser",
    "main",
]
