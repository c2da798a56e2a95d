"""repro — Dynamic Active Storage for High Performance I/O.

A full reproduction of Chen & Chen (ICPP 2012): a discrete-event
simulated HPC cluster, a PVFS2-like striped parallel file system, an
active-storage framework with real NumPy processing kernels, and the
paper's contribution — the DAS bandwidth predictor, offload decision
engine and dependence-aware data distribution — plus the three
evaluation schemes (TS / NAS / DAS) and a harness regenerating every
table and figure of the paper.

Quickstart::

    from repro.hw import Cluster
    from repro.pfs import ParallelFileSystem
    from repro.schemes import DynamicActiveStorageScheme
    from repro.workloads import fractal_dem

    cluster = Cluster.build(n_compute=12, n_storage=12)
    pfs = ParallelFileSystem(cluster)
    pfs.client("c0").ingest("dem", fractal_dem(1024, 1024), pfs.round_robin())
    scheme = DynamicActiveStorageScheme(pfs)
    result = cluster.run(until=scheme.run_operation("flow-routing", "dem", "dirs"))
"""

from . import config, core, errors, hw, kernels, metrics, net, pfs
from . import schemes, sim, units, workloads

# ``repro.harness`` and ``repro.report`` sit on top of everything else
# (harness -> scenarios -> serve -> ...); import them explicitly, so
# that using a lower layer never executes the top one.

__version__ = "1.0.0"

__all__ = [
    "config",
    "core",
    "errors",
    "harness",
    "hw",
    "kernels",
    "metrics",
    "net",
    "pfs",
    "report",
    "schemes",
    "sim",
    "units",
    "workloads",
    "__version__",
]
