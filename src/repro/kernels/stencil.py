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
from typing import Dict, Tuple

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


#: Element budget of one band of :meth:`RowBlockKernel.apply_rows`.  A
#: constant, not an option: results do not depend on it, and 32 k float64
#: elements keep a band and its scratch in cache on any host this runs on.
BAND_ELEMENTS = 32768


def band_rows(cols: int) -> int:
    """Rows per band for a raster ``cols`` wide."""
    return max(8, BAND_ELEMENTS // cols)


class Scratch:
    """Work arrays one ``apply_rows`` call reuses across its bands, so a
    whole-raster call holds its output plus O(band) bytes."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def flat(self, key: str, size: int, dtype=np.float64) -> np.ndarray:
        """A contiguous 1-D array of ``size`` elements, contents undefined."""
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:  # interior bands outgrow the first
            buf = self._buffers[key] = np.empty(size, dtype=dtype)
        return buf[:size]

    def array(self, key: str, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
        """A C-contiguous ``(rows, cols)`` array, contents undefined."""
        return self.flat(key, rows * cols, dtype).reshape(rows, cols)

    def band(self, key: str, n: int, cols: int, dtype=np.float64):
        """An accumulator for :func:`flat_views` arithmetic over an
        ``(n, cols)`` band, as ``(flat, cells)`` over one buffer: ``flat``
        lines up with the views, ``cells`` is its ``(n, cols)`` of real
        output cells."""
        full = self.array(key, n, cols + 2, dtype)
        return full.reshape(-1)[:-2], full[:, :cols]


def pad_rows(
    block: np.ndarray,
    fill: str | float = "edge",
    r0: int = 0,
    n: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Surround rows ``r0 .. r0+n-1`` of a row block (default: all of
    it) with a one-cell ring, into ``out`` if given.

    Ring rows inside the block are its real rows; only beyond the
    block's own border does the ring hold ``fill``: ``'edge'`` replicates
    the border (matching ``scipy.ndimage mode='nearest'``), a float pads
    with that constant (flow routing uses ``+inf`` so padding is never
    the minimum).  Padding only copies values, so a band of a block reads
    bit for bit what ``np.pad`` of the whole block holds there.
    """
    if block.ndim != 2:
        raise KernelError(f"pad_rows expects 2-D, got shape {block.shape}")
    if isinstance(fill, str) and fill != "edge":
        raise KernelError(f"pad_rows fill must be 'edge' or a number, got {fill!r}")
    rows, cols = block.shape
    n = rows if n is None else n
    if out is None:
        out = np.empty((n + 2, cols + 2), dtype=block.dtype)
    edge = fill == "edge"
    v = 0.0 if edge else float(fill)
    out[1:-1, 1:-1] = block[r0 : r0 + n]
    out[0, 1:-1] = block[r0 - 1] if r0 > 0 else (block[0] if edge else v)
    out[-1, 1:-1] = block[r0 + n] if r0 + n < rows else (block[-1] if edge else v)
    out[:, 0] = out[:, 1] if edge else v
    out[:, -1] = out[:, -2] if edge else v
    return out


#: (dr, dc) for each D8 direction code 1..8 and neighbour slot 0..7.
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


def flat_views(padded: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The nine 3x3-window views of a C-contiguous padded band, row-major
    (the eight neighbours, in :data:`D8_OFFSETS` order, are all but
    ``[4]``), as contiguous 1-D slices — not copies: kernels reduce over
    them instead of moving every element nine times.

    A padded band ``(n + 2, w)`` is one buffer, so the neighbour at
    ``(dr, dc)`` is a flat shift by ``dr * w + dc``: element ``r * w + c``
    of every view belongs to output cell ``(r, c)``, and each pass is one
    unit-stride loop.  The two elements per row with ``c >= cols``
    straddle a row end: computed, never stored (:meth:`Scratch.band`).
    """
    w = padded.shape[1]
    m = (padded.shape[0] - 2) * w - 2
    flat = padded.reshape(-1)
    return tuple(
        flat[dr * w + dc : dr * w + dc + m] for dr in range(3) for dc in range(3)
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
