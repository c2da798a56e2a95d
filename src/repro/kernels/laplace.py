"""4-neighbour Laplacian — the paper's *other* important pattern class.

Section III-C: "the most useful data dependence patterns are 4-neighbor
and 8-neighbor patterns".  The five-point Laplacian is the canonical
4-neighbour operator (edge detection, one explicit heat-diffusion
step)::

    out = n + s + e + w - 4 * centre

Replicate edge handling, so border cells see a zero contribution from
the padded direction (the padded neighbour equals the border cell).
Having a genuinely 4-neighbour kernel in the registry exercises the
narrower dependence record through the predictor, the optimizer and the
schemes.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import Scratch


class LaplaceKernel(RowBlockKernel):
    """Five-point Laplacian over a raster."""

    name = "laplace"
    description = (
        "Five-point (4-neighbour) Laplacian used for edge detection and"
        " explicit diffusion steps in image processing and terrain analysis"
    )
    domain = "Signal / Image Processing"
    dependence = DependencePattern.four_neighbor(name)

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        rows, cols = out.shape
        n = p[0:rows, 1 : 1 + cols]
        s = p[2 : 2 + rows, 1 : 1 + cols]
        w = p[1 : 1 + rows, 0:cols]
        e = p[1 : 1 + rows, 2 : 2 + cols]
        np.add(n, s, out=out)
        out += w
        out += e
        out -= 4.0 * p[1:-1, 1:-1]


default_registry.register(LaplaceKernel())
