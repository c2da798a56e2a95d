#!/usr/bin/env python
"""Profile one serving cell (or one engine microbenchmark) under cProfile.

The first tool to reach for when the simulator feels slow.  Runs a
single deterministic workload — the same cell shapes the benches use —
inside ``cProfile`` and prints the top functions by cumulative or
internal time.  See docs/BENCHMARKS.md ("Profiling the simulator") for
how to read the output and which layers usually dominate.

Examples::

    python scripts/profile_sim.py                         # DAS x2.0 cell
    python scripts/profile_sim.py --scheme NAS --load 1.0 --sort tottime
    python scripts/profile_sim.py --engine timeout-storm --top 15
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default="DAS", choices=("TS", "NAS", "DAS"),
                        help="serving scheme of the profiled cell (default DAS)")
    parser.add_argument("--load", type=float, default=2.0,
                        help="offered-load multiplier (default 2.0)")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="simulated seconds of offered load (default 6.0)")
    parser.add_argument("--batch-max", type=int, default=1,
                        help="request batch window (default 1 = off)")
    parser.add_argument("--engine", default=None, metavar="WORKLOAD",
                        help="profile an engine microbenchmark instead of a"
                             " serving cell (see repro.harness.engine_bench)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort order (default cumulative)")
    parser.add_argument("--top", type=int, default=30,
                        help="functions to print (default 30)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also dump raw stats to FILE (snakeviz-loadable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.engine is not None:
        from repro.harness.engine_bench import ENGINE_WORKLOADS

        workloads = {name: (fn, shape) for name, fn, shape in ENGINE_WORKLOADS}
        if args.engine not in workloads:
            print(f"unknown engine workload {args.engine!r};"
                  f" available: {sorted(workloads)}", file=sys.stderr)
            return 2
        fn, shape = workloads[args.engine]
        target = lambda: fn(*shape)  # noqa: E731
        label = f"engine:{args.engine} {'x'.join(map(str, shape))}"
    else:
        from repro.harness.serve_bench import serve_spec
        from repro.scenarios import run_scenario

        spec = serve_spec(
            args.scheme, args.load, args.duration, batch_max=args.batch_max
        )
        target = lambda: run_scenario(spec)  # noqa: E731
        label = (f"serve:{args.scheme} x{args.load:g}"
                 f" d{args.duration:g} b{args.batch_max}")

    print(f"profiling {label} ...", file=sys.stderr)
    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw stats written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
