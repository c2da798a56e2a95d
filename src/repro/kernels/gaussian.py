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
from .stencil import pad_rows


class GaussianFilterKernel(RowBlockKernel):
    """3x3 binomial Gaussian smoothing."""

    name = "gaussian"
    description = (
        "Basic operation of signal and medical image processing. It takes the"
        " raw data as input and output the same size smoothed data"
    )
    domain = "Medical Image Processing"

    #: Filter taps, row-major.
    WEIGHTS = np.array(
        [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]
    ) / 16.0

    def pattern(self) -> DependencePattern:
        return DependencePattern.eight_neighbor(self.name)

    def apply_rows(self, block: np.ndarray) -> np.ndarray:
        p = pad_rows(block, fill="edge")
        rows, cols = block.shape
        out = np.zeros_like(block)
        tap = np.empty_like(block)  # one scratch for all nine products
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                view = p[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
                out += np.multiply(view, self.WEIGHTS[dr + 1, dc + 1], out=tap)
        return out


default_registry.register(GaussianFilterKernel())
