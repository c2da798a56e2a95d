"""Surface slope analysis (Horn's method) — listed in the paper's
Section III-C among the representative 8-neighbour operations
("surface slop analysis").

Gradients by Horn's third-order finite differences over the 3x3
neighbourhood; output is slope magnitude ``sqrt(gx^2 + gy^2)`` with a
unit cell size.  Replicate edge handling.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import Scratch


class SlopeKernel(RowBlockKernel):
    """Horn slope magnitude over an elevation raster."""

    name = "slope"
    description = (
        "Terrain analysis operation computing each cell's slope magnitude"
        " from Horn's gradient over the 3x3 neighbourhood"
    )
    domain = "GIS / Terrain Analysis"
    dependence = DependencePattern.eight_neighbor(name)

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        rows, cols = out.shape

        def view(dr: int, dc: int) -> np.ndarray:
            return p[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]

        nw, n, ne = view(-1, -1), view(-1, 0), view(-1, 1)
        w, e = view(0, -1), view(0, 1)
        sw, s, se = view(1, -1), view(1, 0), view(1, 1)
        gx = ((ne + 2.0 * e + se) - (nw + 2.0 * w + sw)) / 8.0
        gy = ((sw + 2.0 * s + se) - (nw + 2.0 * n + ne)) / 8.0
        np.sqrt(gx * gx + gy * gy, out=out)


default_registry.register(SlopeKernel())
