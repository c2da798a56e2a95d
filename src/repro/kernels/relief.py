"""Local relief (3x3 range filter) — terrain roughness.

A standard DEM derivative used when establishing digital elevation
models (paper Section III-C: "digital evaluation model establishment"):
each cell's local relief is the elevation range over its 3x3
neighbourhood, ``max - min`` including the cell itself.  8-neighbour
dependence, replicate edges.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import neighbor_views, pad_rows


class ReliefKernel(RowBlockKernel):
    """3x3 elevation range (local relief)."""

    name = "relief"
    description = (
        "Terrain roughness operator: the elevation range (max - min) over"
        " each cell's 3x3 neighbourhood, used in DEM quality assessment"
    )
    domain = "GIS / Terrain Analysis"

    def pattern(self) -> DependencePattern:
        return DependencePattern.eight_neighbor(self.name)

    def apply_rows(self, block: np.ndarray) -> np.ndarray:
        views = neighbor_views(pad_rows(block, fill="edge"))
        hi = np.maximum(views[0], views[1])
        lo = np.minimum(views[0], views[1])
        for view in views[2:] + (block,):
            np.maximum(hi, view, out=hi)
            np.minimum(lo, view, out=lo)
        return np.subtract(hi, lo, out=hi)


default_registry.register(ReliefKernel())
