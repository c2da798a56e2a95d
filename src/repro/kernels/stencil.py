"""Stencil machinery: window assembly and edge-rule padding.

Offloaded kernels operate on a *contiguous element range* of a
row-major raster plus the halo elements around it (exactly the bytes an
active-storage server holds locally, or fetched as dependent data).
The helpers here lift that flat window back into 2-D row blocks so the
kernels can run fully vectorised NumPy, then slice out precisely the
core outputs.

Correctness argument (used throughout tests): given a core range
``[first, end)`` and a halo covering reach ``R = max |offset|``, every
dependent element of every core output lies inside the supplied window,
so the NaN filler used for cells outside the window is never read when
producing core outputs.  At the true raster borders, kernels see one
ring of padding built by :func:`pad_rows` with the kernel's edge rule
(replicate for smoothing kernels, +inf for flow routing so out-of-map
neighbours are never selected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import KernelError


@dataclass(frozen=True)
class Window:
    """A flat element window around a core range of a raster."""

    data: np.ndarray  # 1-D elements covering [lo, hi)
    lo: int  # first element index covered
    first: int  # first core element
    end: int  # one past the last core element
    width: int  # raster width (columns)
    n_elements: int  # total elements in the raster

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.first <= self.end <= self.lo + self.data.size):
            raise KernelError(
                f"inconsistent window: lo={self.lo} first={self.first}"
                f" end={self.end} size={self.data.size}"
            )
        if self.n_elements % self.width != 0:
            raise KernelError(
                f"raster of {self.n_elements} elements is not a multiple of"
                f" width {self.width}"
            )

    @property
    def hi(self) -> int:
        return self.lo + self.data.size


def assemble_rows(window: Window) -> Tuple[np.ndarray, int]:
    """Lift a flat window into full raster rows.

    Returns ``(block, r0)`` where ``block`` has shape
    ``(rows, width)`` covering raster rows ``r0 .. r0+rows-1`` and
    cells outside the window are NaN.
    """
    width = window.width
    r0 = window.lo // width
    r1 = (window.hi - 1) // width if window.hi > window.lo else r0
    rows = r1 - r0 + 1
    block = np.empty(rows * width, dtype=np.float64)
    start = window.lo - r0 * width
    stop = start + window.data.size
    block[:start] = np.nan  # only the gap cells need the filler
    block[start:stop] = window.data
    block[stop:] = np.nan
    return block.reshape(rows, width), r0


def pad_rows(block: np.ndarray, fill: str | float = "edge") -> np.ndarray:
    """Surround a row block with a one-cell ring.

    ``fill='edge'`` replicates the border (matching
    ``scipy.ndimage mode='nearest'``); a float pads with that constant
    (flow routing uses ``+inf`` so padding is never the minimum).
    """
    if block.ndim != 2:
        raise KernelError(f"pad_rows expects 2-D, got shape {block.shape}")
    if isinstance(fill, str) and fill != "edge":
        raise KernelError(f"pad_rows fill must be 'edge' or a number, got {fill!r}")
    # Hand-rolled ring (np.pad equivalent, minus its per-call overhead —
    # this runs once per window per kernel application).  Padding only
    # copies values, so the result is bit-identical to np.pad.
    rows, cols = block.shape
    out = np.empty((rows + 2, cols + 2), dtype=block.dtype)
    out[1:-1, 1:-1] = block
    if fill == "edge":
        out[0, 1:-1] = block[0]
        out[-1, 1:-1] = block[-1]
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, -2]
    else:
        v = float(fill)
        out[0, :] = v
        out[-1, :] = v
        out[1:-1, 0] = v
        out[1:-1, -1] = v
    return out


#: (dr, dc) for each slot of :func:`neighbor_views` / D8 direction codes.
D8_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
)


def neighbor_views(padded: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The 8 neighbour views of a padded block, each ``(rows, cols)``, in
    :data:`D8_OFFSETS` order.  Slices of ``padded``, not copies: kernels
    reduce over them instead of moving every element eight times."""
    rows, cols = padded.shape[0] - 2, padded.shape[1] - 2
    return tuple(
        padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
        for dr, dc in D8_OFFSETS
    )


def extract_core(rows_out: np.ndarray, r0: int, window: Window) -> np.ndarray:
    """Slice the core range ``[first, end)`` out of whole-row output."""
    flat = rows_out.reshape(-1)
    lo = window.first - r0 * window.width
    hi = window.end - r0 * window.width
    if lo < 0 or hi > flat.size:
        raise KernelError(
            f"core [{window.first}, {window.end}) escapes row block"
            f" (r0={r0}, rows={rows_out.shape[0]})"
        )
    return flat[lo:hi].copy()


def window_bounds(
    first: int, count: int, reach_before: int, reach_after: int, n_elements: int
) -> Tuple[int, int]:
    """Clamp ``[first - reach_before, first + count + reach_after)`` to the file."""
    if first < 0 or count < 0 or first + count > n_elements:
        raise KernelError(
            f"core range ({first}, {count}) outside raster of {n_elements} elements"
        )
    return max(0, first - reach_before), min(n_elements, first + count + reach_after)
