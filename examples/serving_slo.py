#!/usr/bin/env python
"""Serving SLOs: three tenants, an offered-load ramp, and the deadline.

The paper evaluates one operation at a time; this example runs the
serving layer on top of the same stack: three tenants offer open-loop
Poisson request streams against shared files, an admission controller
sheds what its bounded queues cannot hold, a deficit-weighted-round-
robin scheduler keeps the tenants' byte shares proportional to their
weights, and every request is dispatched offload-vs-normal by the
decision engine (memoised by the decision cache) with the current
queue state folded in.

The run ramps offered load over the DAS scheme and prints, per load,
the per-tenant latency tails against the SLO deadline — then shows the
same top load under NAS (offload-always), where the halo traffic of
round-robin data drives the tail toward the deadline roughly twice as
fast (run `python -m repro.harness serve-bench` for the full ramp, up
to the load where NAS breaks the SLO and DAS still holds it).

Run:  python examples/serving_slo.py
"""

from repro.harness.serve_bench import DEADLINE, serve_spec
from repro.metrics import format_table
from repro.scenarios import run_scenario

LOADS = (0.5, 1.0, 2.0)
DURATION = 4.0


def serve_cell(scheme, load):
    """Summary of one serve-bench cell, materialised from its spec."""
    return run_scenario(serve_spec(scheme, load, DURATION))[0]


def tenant_rows(summary):
    rows = []
    for name, t in summary["tenants"].items():
        if name == "_all":
            continue
        rows.append(
            {
                "tenant": name,
                "admitted": t["admitted"],
                "completed": t["completed"],
                "late": t["late"],
                "expired": t["expired"],
                "rejected": t["rejected"],
                "p50_s": round(t["lat_p50"], 4),
                "p99_s": round(t["lat_p99"], 4),
                "SLO": "ok" if t["lat_p99"] <= DEADLINE and t["expired"] == 0 else "VIOLATED",
            }
        )
    return rows


def main() -> None:
    print(f"SLO: p99 arrival-to-finish latency <= {DEADLINE:g}s, nothing expired\n")

    for load in LOADS:
        summary = serve_cell("DAS", load)
        cache = summary["decision_cache"]
        print(
            f"== DAS, offered load x{load:g} "
            f"({summary['generated']} requests in {DURATION:g}s; "
            f"decision cache {cache['hits']} hits / {cache['misses']} misses,"
            f" {int(summary['paths']['offload'])} offloaded,"
            f" {int(summary['paths']['normal'])} served normal) =="
        )
        print(format_table(tenant_rows(summary)))
        print()

    top = LOADS[-1]
    summary = serve_cell("NAS", top)
    print(
        f"== NAS (offload-always), offered load x{top:g} — same load,"
        f" no dynamic decision =="
    )
    print(format_table(tenant_rows(summary)))

    das = serve_cell("DAS", top)["tenants"]["_all"]
    nas = summary["tenants"]["_all"]
    assert das["lat_p99"] < nas["lat_p99"], "DAS should hold a tighter tail"
    print(
        f"\nDAS p99 {das['lat_p99']:.4f}s vs NAS p99 {nas['lat_p99']:.4f}s"
        f" at the same offered load — the dynamic decision is what keeps"
        f" the tail inside the SLO."
    )


if __name__ == "__main__":
    main()
