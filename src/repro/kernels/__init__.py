"""Processing kernels and their dependence descriptors.

Importing this package registers the paper's kernels (flow-routing,
flow-accumulation, gaussian, median, slope, laplace, relief) into
:data:`default_registry`.
"""

from .base import Kernel, KernelRegistry, RowBlockKernel, default_registry
from .flow_accumulation import FlowAccumulationKernel, accumulate_full
from .flow_routing import FlowRoutingKernel
from .gaussian import GaussianFilterKernel
from .laplace import LaplaceKernel
from .median import MedianFilterKernel
from .pattern import DependencePattern, OffsetTerm
from .reductions import (
    HistogramReduction,
    ReductionKernel,
    ReductionRegistry,
    StatsReduction,
    ThresholdCountReduction,
    default_reductions,
)
from .relief import ReliefKernel
from .slope import SlopeKernel
from .stencil import (
    D8_OFFSETS,
    Window,
    assemble_rows,
    extract_core,
    flat_views,
    pad_rows,
    window_bounds,
)

__all__ = [
    "D8_OFFSETS",
    "DependencePattern",
    "FlowAccumulationKernel",
    "FlowRoutingKernel",
    "GaussianFilterKernel",
    "HistogramReduction",
    "Kernel",
    "LaplaceKernel",
    "KernelRegistry",
    "MedianFilterKernel",
    "OffsetTerm",
    "ReliefKernel",
    "ReductionKernel",
    "ReductionRegistry",
    "RowBlockKernel",
    "StatsReduction",
    "ThresholdCountReduction",
    "SlopeKernel",
    "Window",
    "accumulate_full",
    "assemble_rows",
    "default_reductions",
    "default_registry",
    "extract_core",
    "flat_views",
    "pad_rows",
    "window_bounds",
]
