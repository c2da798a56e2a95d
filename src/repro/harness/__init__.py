"""Experiment harness: platform presets, per-figure regenerators, CLI."""

from .experiments import (
    DEFAULT_NODES,
    EXPERIMENTS,
    PAPER_KERNELS,
    ExperimentReport,
    run_experiment,
)
from .platform import (
    ExperimentPlatform,
    build_platform,
    ingest_for_scheme,
    make_input,
)
from .runs import RunRecord, run_cell, run_label_cell

__all__ = [
    "DEFAULT_NODES",
    "EXPERIMENTS",
    "ExperimentPlatform",
    "ExperimentReport",
    "PAPER_KERNELS",
    "RunRecord",
    "build_platform",
    "ingest_for_scheme",
    "make_input",
    "run_cell",
    "run_experiment",
    "run_label_cell",
]
