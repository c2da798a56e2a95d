"""2-D Gaussian filter — paper Table I.

"Basic operation of signal and medical image processing. It takes the
raw data as input and output the same size smoothed data."  The classic
3x3 binomial approximation of a Gaussian (sigma ~ 0.85)::

    1/16 * | 1 2 1 |
           | 2 4 2 |
           | 1 2 1 |

with replicate ("nearest") edge handling, so results match
``scipy.ndimage.correlate(..., mode='nearest')`` exactly.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import Scratch, flat_views


class GaussianFilterKernel(RowBlockKernel):
    """3x3 binomial Gaussian smoothing."""

    name = "gaussian"
    description = (
        "Basic operation of signal and medical image processing. It takes the"
        " raw data as input and output the same size smoothed data"
    )
    domain = "Medical Image Processing"
    dependence = DependencePattern.eight_neighbor(name)

    #: Filter taps, row-major.
    WEIGHTS = np.array(
        [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]
    ) / 16.0

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        # The nine taps carry three distinct weights, so three scalings of
        # the band give every product; the sum then runs in the row-major
        # tap order from 0 + t0, the same products and the same sequence
        # of additions as one multiply-add per tap — signed zeros,
        # subnormals and overflow included.
        n, cols = out.shape
        w = self.WEIGHTS
        corner = np.multiply(p, w[0, 0], out=scratch.array("corner", *p.shape))
        edge = np.multiply(p, w[0, 1], out=scratch.array("edge", *p.shape))
        c, e = flat_views(corner), flat_views(edge)
        acc, cells = scratch.band("acc", n, cols)
        centre = scratch.flat("centre", acc.size)
        np.multiply(flat_views(p)[4], w[1, 1], out=centre)
        np.add(c[0], 0.0, out=acc)
        for tap in (e[1], c[2], e[3], centre, e[5], c[6], e[7]):
            acc += tap
        np.add(cells, corner[2:, 2:], out=out)


default_registry.register(GaussianFilterKernel())
