"""Flow accumulation — paper Table I.

"It calculates accumulated flow as the accumulated weight of all cells
flowing into each downslope cell."  The operation consumes the
direction raster produced by :mod:`~repro.kernels.flow_routing` (the
paper: "the flow-accumulation operation always follows the flow-routing
operation ... and consumes this intermediate image data"), and shares
the 8-neighbour dependence pattern.

This kernel computes one accumulation *pass*: each cell's own unit
weight plus the weight of every immediate neighbour whose D8 direction
points at the cell.  (Transitive basin accumulation iterates this pass
to a fixed point; :func:`accumulate_full` below provides that reference
for the extended tests.  A single local pass is what maps onto active
storage — it is exactly the 8-neighbour-dependent operation the paper
offloads and measures.)
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import D8_OFFSETS, Scratch, flat_views


class FlowAccumulationKernel(RowBlockKernel):
    """One inflow-accumulation pass over a D8 direction raster."""

    name = "flow-accumulation"
    description = (
        "Another basic operation of terrain analysis application from GIS. It"
        " calculates accumulated flow as the accumulated weight of all cells"
        " flowing into each downslope cell in the output raster."
    )
    domain = "GIS / Terrain Analysis"
    dependence = DependencePattern.eight_neighbor(name)
    fill = 0.0  # outside cells contribute nothing

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        # A neighbour in slot k sits at offset (dr, dc) from the centre;
        # it flows INTO the centre iff its direction code points back at
        # (-dr, -dc).  D8_OFFSETS is antisymmetric around its middle, so
        # the opposite of slot k is slot 7-k, i.e. code 8-k.  The count
        # (own unit weight + at most 8 inflows) is exact in a byte.
        views = flat_views(p)
        count, cells = scratch.band("count", *out.shape, np.uint8)
        points_here = scratch.flat("points_here", count.size, np.bool_)
        count.fill(1)
        for k, view in enumerate(views[:4] + views[5:]):
            np.equal(view, float(8 - k), out=points_here)
            np.add(count, points_here, out=count)
        out[...] = cells


def accumulate_full(directions: np.ndarray, max_iters: int | None = None) -> np.ndarray:
    """Transitive (basin-wide) flow accumulation, as a reference.

    Propagates each cell's accumulated weight along its D8 direction
    until a fixed point: ``acc[c] = 1 + sum(acc[n] for n flowing to c)``.
    Runs in O(longest flow path) sweeps; direction rasters from
    :class:`FlowRoutingKernel` are acyclic (flow always goes strictly
    downhill), so this terminates.
    """
    rows, cols = directions.shape
    acc = np.ones((rows, cols), dtype=np.float64)
    limit = max_iters if max_iters is not None else rows * cols + 1
    for _ in range(limit):
        nxt = np.ones((rows, cols), dtype=np.float64)
        for k, (dr, dc) in enumerate(D8_OFFSETS):
            # Cells with code k+1 send their accumulation to (r+dr, c+dc).
            senders = directions == float(k + 1)
            if not senders.any():
                continue
            rr, cc = np.nonzero(senders)
            tr, tc = rr + dr, cc + dc
            ok = (tr >= 0) & (tr < rows) & (tc >= 0) & (tc < cols)
            np.add.at(nxt, (tr[ok], tc[ok]), acc[rr[ok], cc[ok]])
        if np.array_equal(nxt, acc):
            return acc
        acc = nxt
    return acc


default_registry.register(FlowAccumulationKernel())
