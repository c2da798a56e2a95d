"""The paper-bench side of the platform: operator inputs and references.

How a cluster is built and how files are placed at ingest is decided in
:mod:`repro.scenarios.platform` (the harness builds on the scenario
package, never the reverse); :class:`ExperimentPlatform`,
:func:`build_platform` and :func:`ingest_for_scheme` are imported from
there.  What stays here is specific to the one-shot paper experiments:
the raster each operator consumes and its sequential reference, held
for one dataset size at a time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..kernels import default_registry
from ..scenarios.platform import (
    ExperimentPlatform,
    build_platform,
    ingest_for_scheme,
    node_split,
)
from ..serve.batch import digest_bytes
from ..workloads import DatasetSpec

__all__ = [
    "ExperimentPlatform",
    "build_platform",
    "fingerprint",
    "ingest_for_scheme",
    "make_input",
    "node_split",
    "reference_fingerprint",
    "reference_output",
]


class _SizeMemo:
    """What the cells of one dataset share: flow-routing's reference (the
    direction raster, flow-accumulation's input) and the fingerprint of
    every reference a cell was checked against."""

    def __init__(self, dataset: Optional[DatasetSpec] = None):
        self.dataset, self.directions = dataset, None
        self.fingerprints: Dict[str, tuple] = {}


_memo = _SizeMemo()


def _memo_of(dataset: DatasetSpec) -> _SizeMemo:
    """The memo of ``dataset``; asking for another dataset drops the one
    held before anything of the new one is derived."""
    global _memo
    if _memo.dataset != dataset:
        _memo = _SizeMemo(dataset)
    return _memo


def make_input(dataset: DatasetSpec, operator: str) -> np.ndarray:
    """The raster an operator consumes.

    Flow-accumulation consumes the *direction* raster produced by
    flow-routing (paper Section I), so its input is derived from the
    DEM; the others take the generated dataset directly.
    """
    if operator == "flow-accumulation":
        return reference_output(dataset, "flow-routing")
    _memo_of(dataset)  # another size's rasters go before this one is made
    return dataset.generate()


def reference_output(dataset: DatasetSpec, operator: str) -> np.ndarray:
    """The sequential reference of ``operator`` over its input raster,
    read-only.  Only flow-routing's is held (while ``dataset`` is the one
    asked for), because flow-accumulation's input *is* it; a grid checks
    the others by :func:`reference_fingerprint`."""
    memo = _memo_of(dataset)
    if operator == "flow-routing" and memo.directions is not None:
        return memo.directions
    out = default_registry.get(operator).reference(make_input(dataset, operator))
    out.setflags(write=False)
    if operator == "flow-routing":
        memo.directions = out
    return out


def fingerprint(raster: np.ndarray) -> Tuple[tuple, str, int]:
    """Shape, dtype and CRC-32 of a raster: what a cell's output is
    checked against instead of the whole reference."""
    return raster.shape, raster.dtype.str, digest_bytes(np.ascontiguousarray(raster))


def reference_fingerprint(dataset: DatasetSpec, operator: str) -> Tuple[tuple, str, int]:
    """:func:`fingerprint` of ``operator``'s reference over ``dataset``,
    computed once while ``dataset`` is the one asked for."""
    memo = _memo_of(dataset)
    if operator not in memo.fingerprints:
        memo.fingerprints[operator] = fingerprint(reference_output(dataset, operator))
    return memo.fingerprints[operator]
