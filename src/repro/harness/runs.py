"""Single measured runs: one (scheme, kernel, dataset, cluster) cell.

Every figure in the paper is a grid of these cells.  A run builds a
fresh cluster (no state leaks between cells), ingests the input the way
the scheme's stack would have placed it, serves the operation, and
verifies the output against the sequential reference before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import HarnessError
from ..schemes import SCHEMES, SchemeResult
from ..workloads import DatasetSpec, dataset_for_label
from .platform import ExperimentPlatform, build_platform, ingest_for_scheme
from .platform import make_input, reference_output


@dataclass
class RunRecord:
    """One measured cell, with provenance."""

    scheme: str
    operator: str
    label_gb: float
    n_nodes: int
    sim_seconds: float
    client_mb: float
    server_mb: float
    offloaded: bool
    verified: bool
    bandwidth: float  # dataset bytes / sim second

    @property
    def row(self) -> dict:
        return {
            "scheme": self.scheme,
            "operator": self.operator,
            "data_gb": self.label_gb,
            "nodes": self.n_nodes,
            "time_s": self.sim_seconds,
            "client_MB": self.client_mb,
            "server_MB": self.server_mb,
            "offloaded": self.offloaded,
            "verified": self.verified,
        }


def run_cell(
    scheme: str,
    operator: str,
    dataset: DatasetSpec,
    n_nodes: int,
    platform: Optional[ExperimentPlatform] = None,
    verify: bool = True,
    pipeline_length: int = 1,
) -> RunRecord:
    """Build, run and verify one cell; returns its record."""
    if scheme not in SCHEMES:
        raise HarnessError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    cluster, pfs = build_platform(n_nodes, platform)
    data = make_input(dataset, operator)
    ingest_for_scheme(pfs, scheme, "input", data, operator)

    scheme_obj = SCHEMES[scheme](pfs)
    done = scheme_obj.run_operation(
        operator, "input", "output", pipeline_length=pipeline_length
    )
    result: SchemeResult = cluster.run(until=done)

    verified = True
    if verify:
        reference = reference_output(dataset, operator)
        if result.offloaded:
            produced = pfs.client(cluster.compute_names[0]).collect("output")
        else:
            source = scheme_obj if scheme == "TS" else scheme_obj._fallback
            produced = source.client_output(data.shape)
        verified = bool(np.array_equal(produced, reference))
        if not verified:
            raise HarnessError(
                f"{scheme}/{operator} produced an output that differs from the"
                " sequential reference — simulation correctness bug"
            )

    return RunRecord(
        scheme=scheme,
        operator=operator,
        label_gb=dataset.label_gb,
        n_nodes=n_nodes,
        sim_seconds=result.elapsed,
        client_mb=result.traffic.client_bytes / 1e6,
        server_mb=result.traffic.server_bytes / 1e6,
        offloaded=result.offloaded,
        verified=verified,
        bandwidth=result.bandwidth,
    )


def run_label_cell(
    scheme: str,
    operator: str,
    label_gb: float,
    n_nodes: int,
    platform: Optional[ExperimentPlatform] = None,
    scale: Optional[int] = None,
    verify: bool = True,
) -> RunRecord:
    """Convenience: build the dataset from its paper GB label."""
    kwargs = {} if scale is None else {"scale": scale}
    dataset = dataset_for_label(label_gb, **kwargs)
    return run_cell(scheme, operator, dataset, n_nodes, platform, verify)
