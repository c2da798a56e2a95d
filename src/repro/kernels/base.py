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
from .stencil import Window, assemble_rows, extract_core, window_bounds


class Kernel(ABC):
    """One data-analysis operator."""

    #: Registry key and Kernel Features record name.
    name: str = ""
    #: One-line description (used to regenerate the paper's Table I).
    description: str = ""
    #: Application domain, for Table I ("GIS", "Medical Image Processing", ...).
    domain: str = ""

    @abstractmethod
    def pattern(self) -> DependencePattern:
        """The operator's dependence pattern (symbolic in imgWidth)."""

    @abstractmethod
    def apply_window(self, window: Window) -> np.ndarray:
        """Compute outputs for the window's core range.

        Returns a 1-D array of ``window.end - window.first`` elements
        (float64).  Implementations must only read window cells that
        the dependence pattern declares."""

    # -- derived helpers -------------------------------------------------------
    def reach_before(self, width: int) -> int:
        return self.pattern().reach_before(width)

    def reach_after(self, width: int) -> int:
        return self.pattern().reach_after(width)

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
        lo, hi = window_bounds(
            first, count, self.reach_before(width), self.reach_after(width), flat.size
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
        return self.pattern().to_text()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Kernel {self.name!r}>"


class RowBlockKernel(Kernel):
    """Base for kernels computed on 2-D row blocks with an edge ring.

    Subclasses implement :meth:`apply_rows` over a row block (NaN
    outside the window, never read for core outputs per the argument in
    :mod:`repro.kernels.stencil`); this base lifts flat windows into
    blocks and slices the core back out.
    """

    @abstractmethod
    def apply_rows(self, block: np.ndarray) -> np.ndarray:
        """Whole-block computation; same shape in and out."""

    def apply_window(self, window: Window) -> np.ndarray:
        block, r0 = assemble_rows(window)
        with np.errstate(invalid="ignore"):
            rows_out = self.apply_rows(block)
        if rows_out.shape != block.shape:
            raise KernelError(
                f"{self.name}: apply_rows changed shape"
                f" {block.shape} -> {rows_out.shape}"
            )
        return extract_core(rows_out, r0, window)

    def reference(self, full: np.ndarray) -> np.ndarray:
        """Whole raster: the block *is* the raster, so skip the flat
        window round trip (two full-size copies) and apply directly."""
        if full.ndim != 2:
            raise KernelError("reference expects a 2-D raster")
        with np.errstate(invalid="ignore"):
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
