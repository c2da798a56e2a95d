"""3x3 median filter — the paper's Section I example from Medical Image
Processing ("median filter ... always require[s] eight neighbor data
items to process each data element").

Replicate edge handling; results match
``scipy.ndimage.median_filter(size=3, mode='nearest')``.
"""

from __future__ import annotations

import numpy as np

from .base import RowBlockKernel, default_registry
from .pattern import DependencePattern
from .stencil import Scratch


class MedianFilterKernel(RowBlockKernel):
    """3x3 median smoothing (impulse-noise removal).

    A min/max selection network, not a sort: the median of nine is the
    median of (largest column minimum, median column median, smallest
    column maximum), and the three-row sort of a padded column is shared
    by the three windows containing it — 18 passes, no nine-plane stack.
    ``minimum``/``maximum`` propagate NaN, so a NaN anywhere in a window
    still yields NaN, as NumPy's median does.  The selected value has
    that median's bits except for a zero, whose sign a selection picks by
    operand order while NumPy's median (the mean of one element,
    ``0 + m``) always gives ``+0.0``; the closing ``+ 0.0`` does the same.
    """

    name = "median"
    description = (
        "Basic operation of medical image processing; replaces each element"
        " with the median of its 3x3 neighbourhood to remove impulse noise"
    )
    domain = "Medical Image Processing"
    dependence = DependencePattern.eight_neighbor(name)

    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        n, cols = out.shape
        above, centre, below = p[:n], p[1 : n + 1], p[2:]
        # sort3 down every padded column: lo <= mid <= hi.
        lo, mid, hi, t = (
            scratch.array(key, n, cols + 2) for key in ("lo", "mid", "hi", "t")
        )
        np.minimum(above, centre, out=lo)
        np.maximum(above, centre, out=t)
        np.maximum(lo, below, out=hi)
        np.minimum(lo, below, out=lo)
        np.minimum(t, hi, out=mid)
        np.maximum(t, hi, out=hi)

        def columns(x: np.ndarray):
            # A window is three adjacent columns: flat shifts by 0, 1, 2
            # (the geometry of stencil.flat_views), every pass unit-stride.
            flat = x.reshape(-1)
            return flat[:-2], flat[1:-1], flat[2:]

        (lo0, lo1, lo2), (mid0, mid1, mid2) = columns(lo), columns(mid)
        hi0, hi1, hi2 = columns(hi)
        a, b = columns(t)[0], scratch.flat("b", lo0.size)
        np.maximum(lo0, lo1, out=a)
        np.maximum(a, lo2, out=a)  # a = largest minimum
        np.minimum(hi0, hi1, out=b)
        np.minimum(b, hi2, out=b)  # b = smallest maximum
        c, d = lo0, hi0  # both consumed: reuse
        np.minimum(mid0, mid1, out=c)
        np.maximum(mid0, mid1, out=d)
        np.minimum(d, mid2, out=d)
        np.maximum(c, d, out=c)  # c = median of the medians
        np.minimum(a, c, out=d)
        np.maximum(a, c, out=a)
        np.minimum(a, b, out=a)
        np.maximum(d, a, out=d)  # med3(a, c, b), in hi's buffer
        np.add(hi[:, :cols], 0.0, out=out)


default_registry.register(MedianFilterKernel())
