#!/usr/bin/env python
"""Head-to-head scheme comparison with per-node utilisation Gantt.

Runs the same 2-D Gaussian filter under TS, NAS and DAS on identical
clusters, prints the paper-style comparison rows, and renders a text
Gantt chart of one NAS storage server vs one DAS storage server — the
visual version of the paper's explanation for NAS's slowness (servers
interleaving their own disk I/O, peers' halo requests and compute).
The Gantt rows are the device spans a tracer on the cluster's monitor
hub collects (one per CPU or disk busy interval).

Run:  python examples/scheme_comparison.py
"""

import numpy as np

from repro.harness.platform import ingest_for_scheme
from repro.hw import Cluster
from repro.metrics import Timeline, format_table, render_gantt
from repro.obs import Tracer
from repro.pfs import ParallelFileSystem
from repro.schemes import SCHEMES
from repro.units import KiB, fmt_time
from repro.workloads import fractal_dem


def run(label: str):
    cluster = Cluster.build(n_compute=8, n_storage=8)
    tracer = Tracer().bind(lambda: cluster.env.now)
    cluster.monitors.tracer = tracer
    pfs = ParallelFileSystem(cluster, strip_size=64 * KiB)
    dem = fractal_dem(1024, 1024, rng=np.random.default_rng(99))
    ingest_for_scheme(pfs, label, "img", dem, "gaussian")
    scheme = SCHEMES[label](pfs)
    result = cluster.run(until=scheme.run_operation("gaussian", "img", "out"))
    return tracer, result


def main() -> None:
    rows = []
    timelines = {}
    for label in ("TS", "NAS", "DAS"):
        tracer, result = run(label)
        timelines[label] = Timeline.from_spans(tracer.spans)
        rows.append(
            {
                "scheme": label,
                "time": fmt_time(result.elapsed),
                "client_MB": result.traffic.client_bytes / 1e6,
                "server_MB": result.traffic.server_bytes / 1e6,
                "offloaded": result.offloaded,
            }
        )
    print(format_table(rows))
    print()

    for label in ("NAS", "DAS"):
        tl = timelines[label]
        print(f"{label} storage node s0 (disk row shows halo service + own I/O):")
        art = render_gantt(tl, width=64)
        for line in art.splitlines():
            if line.strip().startswith("s0"):
                print(line)
        print(
            f"  s0 disk busy {fmt_time(tl.busy_seconds('s0', 'disk'))},"
            f" cpu busy {fmt_time(tl.busy_seconds('s0', 'cpu'))}"
        )
        print()


if __name__ == "__main__":
    main()
