"""Platform and simulation configuration.

A :class:`PlatformSpec` captures the hardware parameters of the
simulated cluster.  The defaults approximate the paper's testbed (the
Hrothgar cluster at Texas Tech: 12-core Xeon nodes, Lustre storage,
gigabit-class interconnect between the partition used as "storage
nodes" and the partition used as "compute nodes").

Absolute fidelity is not the goal — the reproduction band for this
paper is "simulation of the scheduler, low fidelity" — but the ratios
that drive the paper's results are respected:

* moving a byte across the interconnect is far more expensive than
  reading it from a local disk's cache-friendly streaming path;
* kernels are cheap per element relative to transferring that element,
  which is exactly why data movement dominates run time (Section I of
  the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .units import GiB, KiB, MiB, us


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware parameters of one simulated cluster node + fabric."""

    #: NIC bandwidth in bytes/second (per direction, full duplex).
    #: Deliberately below the storage path: the paper's premise is that
    #: "the bandwidth between the compute nodes and the storage nodes
    #: has not improved at the same rate as the storage capacity".
    nic_bandwidth: float = 256 * MiB
    #: One-way message latency in seconds.
    nic_latency: float = 10 * us
    #: Per-message software overhead (request handling, RPC dispatch).
    rpc_overhead: float = 5 * us
    #: Disk streaming bandwidth in bytes/second (server-class array with
    #: cache-friendly sequential strips — faster than the interconnect).
    disk_bandwidth: float = 0.75 * GiB
    #: Average positioning time charged once per I/O request.
    disk_seek: float = 10 * us
    #: CPU cores available to processing kernels on each node.
    cores: int = 12
    #: Seconds of CPU time to process one data element, per kernel name.
    #: Fallback ``"default"`` applies to unknown kernels.
    kernel_cost: Dict[str, float] = field(
        default_factory=lambda: {
            "default": 4e-9,
            "flow-routing": 6e-9,
            "flow-accumulation": 8e-9,
            "gaussian": 10e-9,
            "median": 14e-9,
            "slope": 6e-9,
        }
    )
    #: Aggregate bandwidth of the compute<->storage bisection in
    #: bytes/second (0 = non-blocking switch).  When set, every
    #: cross-partition flow also traverses this shared link — the
    #: oversubscribed-fabric model.
    bisection_bandwidth: float = 0.0
    #: Per-server read-cache budget in bytes (0 = no cache).  Strips
    #: read from or written to disk stay cached LRU; cache hits skip
    #: the disk entirely, as on Lustre/PVFS servers with page cache.
    server_cache_bytes: int = 0

    def kernel_sec_per_element(self, kernel: str) -> float:
        return self.kernel_cost.get(kernel, self.kernel_cost["default"])

    def with_overrides(self, **kwargs) -> "PlatformSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SimConfig:
    """Per-run simulation knobs (independent of the hardware)."""

    #: Root seed for all random substreams.
    seed: int = 20120910  # ICPP 2012 conference date
    #: PFS strip size in bytes (PVFS2 default per the paper: 64 KB).
    strip_size: int = 64 * KiB
    #: Element size E in bytes (float64 raster cells).
    element_size: int = 8


#: Paper-like platform: used by the harness presets.
HROTHGAR = PlatformSpec()

#: A deliberately I/O-starved platform (narrow interconnect) used in
#: ablations to accentuate the data-movement effects.
NARROW_NETWORK = PlatformSpec(nic_bandwidth=64 * MiB)

#: A platform whose interconnect outruns the disks (data movement is
#: cheap); offload decisions flip toward normal I/O here.
FAT_NETWORK = PlatformSpec(nic_bandwidth=2 * GiB)

#: A compute-starved platform (slow cores) where offload decisions flip.
SLOW_CPU = PlatformSpec(
    kernel_cost={
        "default": 40e-9,
        "flow-routing": 60e-9,
        "flow-accumulation": 80e-9,
        "gaussian": 100e-9,
        "median": 140e-9,
        "slope": 60e-9,
    }
)
