"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness fig11
    python -m repro.harness all --scale-kb 512
    das-harness fig14

``--scale-kb`` sets how many simulated KiB stand in for one paper GB
(default 1024, i.e. 1 MiB per GB); smaller values run faster with the
same shape.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

from ..units import KiB
from .common import bench_timer
from .experiments import EXPERIMENTS, run_experiment
from .trajectory import write_trajectory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das-harness",
        description="Regenerate the DAS paper's tables and figures in simulation.",
        epilog=(
            "Additional subcommand: 'report' regenerates docs/RESULTS.md"
            " from the committed bench record (its own flags:"
            " das-harness report --help)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    parser.add_argument(
        "--scale-kb",
        type=int,
        default=1024,
        help="simulated KiB per paper GB label (default 1024)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip output-vs-reference verification (faster)",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help=(
            "write the machine-readable perf trajectory"
            " (BENCH_serve.json / BENCH_paper.json / BENCH_scenarios.json)"
            " under DIR"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "serving benches: re-run one"
            " representative cell with request tracing on, write"
            " DIR/<cell>.trace.json (Perfetto-loadable) and"
            " <cell>.attribution.json, and check the traced run is"
            " bit-identical to the untraced one"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help=(
            "with --trace-dir: trace only every Nth request"
            " (deterministic by request id; default 1 = every request)"
        ),
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help=(
            "serve/chaos/autoscale/fleet benches: re-run one"
            " representative cell with the clock-driven telemetry"
            " sampler + alert engine on, write DIR/<cell>.telemetry.json"
            " (validated by python -m repro.verify telemetry), and check the"
            " sampled run is bit-identical to the unsampled one"
        ),
    )
    parser.add_argument(
        "--chaos-spec",
        default=None,
        metavar="SPEC",
        help=(
            "chaos-bench only: run one extra DAS cell under this fault"
            " schedule, e.g. 'crash:s1@1.0;recover:s1@3.0;slow:s2@2.0x0.1'"
        ),
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=None,
        metavar="N",
        help=(
            "serve-bench only: merge up to N same-(file, kernel) requests"
            " into one fan-out (1 disables batching; default: bench default)"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            "scenario-bench only: run this library scenario (by name) or"
            " spec file instead of the whole library; repeatable"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "report":
        # The results-report subcommand has its own argparse surface
        # (different flags, no simulation); dispatch before parsing.
        from .report import main as report_main

        return report_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failures = 0
    timed = []
    # One option set for every experiment; each regenerator receives
    # exactly the options its signature names.
    options = {
        "scale": args.scale_kb * KiB,
        "verify": not args.no_verify,
        "batch_max": args.batch_max,
        "chaos_spec": args.chaos_spec,
        "scenarios": tuple(args.scenario) if args.scenario else None,
        "trace_dir": args.trace_dir,
        "trace_sample": args.trace_sample,
        "telemetry_dir": args.telemetry_dir,
    }
    for name in names:
        accepted = inspect.signature(EXPERIMENTS[name]).parameters
        kwargs = {
            key: value
            for key, value in options.items()
            if key in accepted and value is not None
        }
        with bench_timer() as timing:
            report = run_experiment(name, **kwargs)
        timed.append((report, timing))
        print(report.to_text())
        print()
        if not report.all_checks_pass:
            failures += 1
    if args.bench_dir:
        for path in write_trajectory(args.bench_dir, timed, args.scale_kb):
            print(f"wrote {path}", file=sys.stderr)
    if failures:
        print(f"{failures} experiment(s) had failing shape checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
