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
from .stencil import Scratch, flat_views


class ReliefKernel(RowBlockKernel):
    """3x3 elevation range (local relief)."""

    name = "relief"
    description = (
        "Terrain roughness operator: the elevation range (max - min) over"
        " each cell's 3x3 neighbourhood, used in DEM quality assessment"
    )
    domain = "GIS / Terrain Analysis"
    dependence = DependencePattern.eight_neighbor(name)

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        views = flat_views(p)
        hi, hi_cells = scratch.band("hi", *out.shape)
        lo, lo_cells = scratch.band("lo", *out.shape)
        np.maximum(views[0], views[1], out=hi)
        np.minimum(views[0], views[1], out=lo)
        for view in views[2:]:
            np.maximum(hi, view, out=hi)
            np.minimum(lo, view, out=lo)
        np.subtract(hi_cells, lo_cells, out=out)


default_registry.register(ReliefKernel())
