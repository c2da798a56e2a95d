"""The paper-bench side of the platform: operator inputs and references.

How a cluster is built and how files are placed at ingest is decided in
:mod:`repro.scenarios.platform` (the harness builds on the scenario
package, never the reverse); :class:`ExperimentPlatform`,
:func:`build_platform` and :func:`ingest_for_scheme` are imported from
there.  What stays here is specific to the one-shot paper experiments:
the raster each operator consumes and its memoised sequential
reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..kernels import default_registry
from ..scenarios.platform import (
    ExperimentPlatform,
    build_platform,
    ingest_for_scheme,
    node_split,
)
from ..workloads import DatasetSpec

__all__ = [
    "ExperimentPlatform",
    "build_platform",
    "ingest_for_scheme",
    "make_input",
    "node_split",
    "reference_output",
]


def make_input(dataset: DatasetSpec, operator: str) -> np.ndarray:
    """The raster an operator consumes.

    Flow-accumulation consumes the *direction* raster produced by
    flow-routing (paper Section I), so its input is derived from the
    DEM; the others take the generated dataset directly.
    """
    if operator == "flow-accumulation":
        return reference_output(dataset, "flow-routing")
    return dataset.generate()


@lru_cache(maxsize=12)  # the paper grids: 4 dataset sizes x 3 kernels
def reference_output(dataset: DatasetSpec, operator: str) -> np.ndarray:
    """The sequential reference of ``operator`` over its input raster,
    memoised read-only like :meth:`DatasetSpec.generate`: a grid checks
    every scheme against it, and flow-accumulation's input *is* one."""
    out = default_registry.get(operator).reference(make_input(dataset, operator))
    out.setflags(write=False)
    return out
