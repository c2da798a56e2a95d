"""Kernel abstraction and registry (paper Fig. 2, "Processing Kernels").

Kernels are "designed as separate components and can run independently"
— each one couples:

* a :class:`~repro.kernels.pattern.DependencePattern` (its Kernel
  Features record, used by the bandwidth predictor), and
* a pure NumPy computation over an element window (used by every
  scheme, so TS / NAS / DAS provably produce identical outputs).

The registry maps operator names to kernel instances; the Active
Storage Client and the AS helper processes resolve kernels by name,
exactly like the paper's kernel-features description file keyed by
``Name:``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import KernelError, UnknownKernelError
from .pattern import DependencePattern
from .stencil import (
    Scratch,
    Window,
    assemble_rows,
    band_rows,
    extract_core,
    pad_rows,
    window_bounds,
)


class Kernel(ABC):
    """One data-analysis operator."""

    #: Registry key and Kernel Features record name.
    name: str = ""
    #: One-line description (used to regenerate the paper's Table I).
    description: str = ""
    #: Application domain, for Table I ("GIS", "Medical Image Processing", ...).
    domain: str = ""

    #: The operator's dependence pattern (symbolic in imgWidth); immutable,
    #: built once per class.
    dependence: DependencePattern

    def pattern(self) -> DependencePattern:
        """The operator's Kernel Features record, as a pattern."""
        return self.dependence

    @abstractmethod
    def apply_window(self, window: Window) -> np.ndarray:
        """Compute outputs for the window's core range.

        Returns a 1-D array of ``window.end - window.first`` elements
        (float64).  Implementations must only read window cells that
        the dependence pattern declares."""

    # -- derived helpers -------------------------------------------------------
    def apply_range(
        self,
        full: np.ndarray,
        first: int,
        count: int,
        width: Optional[int] = None,
    ) -> np.ndarray:
        """Convenience: run the kernel on a core range of an in-memory
        raster (tests and the sequential reference path use this)."""
        flat = np.ascontiguousarray(full, dtype=np.float64).reshape(-1)
        if width is None:
            if full.ndim != 2:
                raise KernelError("width is required for non-2-D input")
            width = full.shape[1]
        deps = self.dependence
        lo, hi = window_bounds(
            first, count, deps.reach_before(width), deps.reach_after(width), flat.size
        )
        window = Window(
            data=flat[lo:hi],
            lo=lo,
            first=first,
            end=first + count,
            width=width,
            n_elements=flat.size,
        )
        return self.apply_window(window)

    def reference(self, full: np.ndarray) -> np.ndarray:
        """Whole-raster sequential output (the ground truth in tests)."""
        if full.ndim != 2:
            raise KernelError("reference expects a 2-D raster")
        out = self.apply_range(full, 0, full.size, width=full.shape[1])
        return out.reshape(full.shape)

    def features_record(self) -> str:
        """The operator's Kernel Features record (paper text format)."""
        return self.dependence.to_text()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Kernel {self.name!r}>"


class RowBlockKernel(Kernel):
    """Base for kernels computed on 2-D row blocks with an edge ring.

    Subclasses implement :meth:`stencil` over one padded band; this base
    walks a row block in bands (:meth:`apply_rows`), lifts flat windows
    into blocks (NaN outside the window, never read for core outputs per
    the argument in :mod:`repro.kernels.stencil`) and slices the core
    back out.
    """

    #: What the one-cell ring holds beyond the block's border
    #: (:func:`~repro.kernels.stencil.pad_rows`).
    fill: str | float = "edge"

    @abstractmethod
    def stencil(self, p: np.ndarray, out: np.ndarray, scratch: Scratch) -> None:
        """Fill ``out`` (``(n, cols)``) from the padded band ``p``
        (``(n + 2, cols + 2)``); work arrays come from ``scratch``."""

    def apply_rows(self, block: np.ndarray) -> np.ndarray:
        """Whole-block computation; same shape in and out.

        The block is walked in bands of :func:`band_rows` rows.  Each
        band's ring rows are its real neighbour rows, so only the block's
        own border meets the edge rule and the result is bit for bit the
        single-band one; a block no taller than a band (every strip-sized
        server window) is one band.
        """
        rows, cols = block.shape
        out = np.empty((rows, cols), dtype=np.float64)
        band = band_rows(cols)
        scratch = Scratch()
        with np.errstate(invalid="ignore"):
            for r in range(0, rows, band):
                n = min(band, rows - r)
                p = scratch.array("pad", n + 2, cols + 2)
                pad_rows(block, self.fill, r, n, out=p)
                self.stencil(p, out[r : r + n], scratch)
        return out

    def apply_window(self, window: Window) -> np.ndarray:
        block, r0 = assemble_rows(window)
        return extract_core(self.apply_rows(block), r0, window)

    def reference(self, full: np.ndarray) -> np.ndarray:
        """Whole raster: the block *is* the raster, so skip the flat
        window round trip (two full-size copies) and apply directly."""
        if full.ndim != 2:
            raise KernelError("reference expects a 2-D raster")
        return self.apply_rows(np.ascontiguousarray(full, dtype=np.float64))


class KernelRegistry:
    """Name -> kernel instance."""

    def __init__(self) -> None:
        self._kernels: Dict[str, Kernel] = {}

    def register(self, kernel: Kernel) -> Kernel:
        if not kernel.name:
            raise KernelError(f"kernel {kernel!r} has no name")
        if kernel.name in self._kernels:
            raise KernelError(f"kernel {kernel.name!r} already registered")
        self._kernels[kernel.name] = kernel
        return kernel

    def get(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise UnknownKernelError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._kernels)

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self._kernels.values())

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __len__(self) -> int:
        return len(self._kernels)

    def features_file(self) -> str:
        """All registered Kernel Features records, concatenated — the
        content of the paper's descriptor file."""
        return "\n".join(self._kernels[n].features_record() for n in self.names())


#: Process-wide default registry; the concrete kernels register here on import.
default_registry = KernelRegistry()
