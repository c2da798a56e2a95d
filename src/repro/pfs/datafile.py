"""Logical file descriptions and element/byte address arithmetic.

Files in the PFS are flat byte arrays; data-intensive applications view
them as rasters (2-D arrays of fixed-size elements, row-major).  The
paper's bandwidth model works in *element* indices (Eqs. 1–4); this
module centralises the element <-> byte conversions so every component
agrees on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import PFSError
from .layout import Layout


@dataclass
class FileMeta:
    """Metadata record for one PFS file."""

    name: str
    size: int  # bytes
    layout: Layout
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    #: Raster geometry (rows, cols) when the file is a 2-D dataset.
    shape: Optional[Tuple[int, int]] = None
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        if self.size < 0:
            raise PFSError(f"negative file size {self.size!r}")
        if self.shape is not None:
            rows, cols = self.shape
            expected = rows * cols * self.dtype.itemsize
            if expected != self.size:
                raise PFSError(
                    f"shape {self.shape} x {self.dtype} = {expected} bytes"
                    f" but file size is {self.size}"
                )

    @property
    def element_size(self) -> int:
        """E in the paper's equations."""
        return self.dtype.itemsize

    @property
    def n_elements(self) -> int:
        return self.size // self.element_size

    @property
    def width(self) -> int:
        """Raster width in elements (imgWidth in the paper)."""
        if self.shape is None:
            raise PFSError(f"file {self.name!r} has no raster shape")
        return self.shape[1]

    # -- address arithmetic ---------------------------------------------------
    def elem_range_bytes(self, first: int, count: int) -> Tuple[int, int]:
        """(byte offset, byte length) of ``count`` elements from ``first``."""
        return first * self.element_size, count * self.element_size
