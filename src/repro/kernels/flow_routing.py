"""Flow routing (D8 single flow direction) — paper Table I, Fig. 1.

For every cell, compare its elevation with its eight neighbours and
emit the direction of the minimum neighbour ("find out the element with
the minimum value as the flow direction").  Direction codes are
1..8 in NW, N, NE, W, E, SW, S, SE order (:data:`D8_OFFSETS`); 0 marks
a pit/flat cell whose neighbours are all at least as high.  Ties break
toward the lowest code (NW first), deterministically.

Out-of-map neighbours are padded with ``+inf`` so border cells never
route off the raster.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import Scratch, flat_views


class FlowRoutingKernel(RowBlockKernel):
    """D8 single-flow-direction over an elevation raster."""

    name = "flow-routing"
    description = (
        "Basic operation of terrain analysis application from GIS. It produces"
        " distinctive spatial and statistical patterns depending on the maximum"
        " number of downslope cells to which flow could be directed"
    )
    domain = "GIS / Terrain Analysis"
    dependence = DependencePattern.eight_neighbor(name)
    fill = np.inf  # an out-of-map neighbour is never the minimum

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        views = flat_views(p)
        block, views = views[4], views[:4] + views[5:]
        score, cells = scratch.band("score", *out.shape, np.uint8)
        lowest = np.minimum(views[0], views[1], out=scratch.flat("lowest", score.size))
        for view in views[2:]:
            np.minimum(lowest, view, out=lowest)
        # argmin's first-minimum tie-break without a stack: slot k scores
        # 8-k where it equals the minimum, so the running maximum keeps
        # the lowest such k.  A NaN minimum equals nothing (score 0), and
        # like argmin's NaN pick it is masked by ``lowest < block`` below.
        score.fill(0)
        hit = scratch.flat("hit", score.size, np.uint8)
        equal = scratch.flat("equal", score.size, np.bool_)
        for k, view in enumerate(views):
            np.equal(view, lowest, out=equal)
            np.multiply(equal, np.uint8(8 - k), out=hit)
            np.maximum(score, hit, out=score)
        np.subtract(9, score, out=score)  # score 8-k -> direction code k+1
        np.multiply(score, np.less(lowest, block, out=equal), out=score)
        out[...] = cells


default_registry.register(FlowRoutingKernel())
