"""Dataset sizing: mapping the paper's GB labels to simulated rasters.

The paper evaluates 24–60 GB datasets on 24–60 physical nodes.  The
reproduction keeps *real* NumPy data for functional correctness, so the
rasters are scaled down by :data:`DEFAULT_SCALE` (1 paper-GB ->
1 simulated MiB by default).  Because every cost in the simulation
(wire time, disk time, CPU time) is linear in bytes/elements, the
scheme *ratios* — which scheme wins and by how much — are invariant
under this scaling; only absolute seconds shrink.  The harness reports
both the simulated seconds and the label so results read like the
paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..units import GiB, MiB
from .dem import fractal_dem
from .imaging import add_salt_pepper, phantom_image

#: Simulated bytes per paper-GB.
DEFAULT_SCALE = 1 * MiB

#: The paper's dataset sizes (GB labels) used across Figs. 10, 12, 14.
PAPER_DATA_SIZES_GB = (24, 36, 48, 60)

#: The paper's node counts (Fig. 13); half are storage nodes.
PAPER_NODE_COUNTS = (24, 36, 48, 60)


def raster_shape_for_bytes(n_bytes: int, element_size: int = 8) -> Tuple[int, int]:
    """A near-square (rows, cols) raster of about ``n_bytes``.

    Rows and cols are chosen so ``rows * cols * element_size`` is as
    close to ``n_bytes`` as possible without exceeding it, keeping the
    raster wide enough that an 8-neighbour halo (one row) is small
    against a strip.
    """
    if n_bytes < element_size:
        raise ValueError(f"dataset of {n_bytes} bytes holds no elements")
    n_elements = n_bytes // element_size
    cols = max(1, int(math.sqrt(n_elements)))
    rows = max(1, n_elements // cols)
    return rows, cols


@dataclass(frozen=True)
class DatasetSpec:
    """One experiment dataset: a paper-scale label plus simulated shape."""

    label_gb: float
    rows: int
    cols: int
    kind: str = "dem"  # "dem" or "image"
    seed: int = 0

    @property
    def n_bytes(self) -> int:
        return self.rows * self.cols * 8

    @property
    def shape(self) -> Tuple[int, int]:
        return self.rows, self.cols

    @lru_cache(maxsize=4)
    def generate(self) -> np.ndarray:
        """The spec's raster, synthesised once per process: every cell of
        a grid asks for the same few specs.  Memoised per (frozen) spec
        and **read-only**; ingest adopts it without copying (every cell's
        strips are views of this one array) and the data servers copy a
        strip before its first write (``DataServer._strip_array``)."""
        rng = np.random.default_rng(self.seed)
        if self.kind == "dem":
            data = fractal_dem(self.rows, self.cols, rng=rng)
        elif self.kind == "image":
            data = add_salt_pepper(
                phantom_image(self.rows, self.cols, rng=rng), fraction=0.01, rng=rng
            )
        else:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        data.setflags(write=False)
        return data


def dataset_for_label(
    label_gb: float,
    kind: str = "dem",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
) -> DatasetSpec:
    """The simulated dataset standing in for a paper ``label_gb`` GB file."""
    rows, cols = raster_shape_for_bytes(int(label_gb * scale))
    return DatasetSpec(label_gb=label_gb, rows=rows, cols=cols, kind=kind, seed=seed)
