#!/usr/bin/env python3
"""One command for the whole benchmark (contract: BENCHMARK.json).

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--passes N] [--trace {0,1}] [--out DIR]

Without ``--workload`` all four run, one after the other.  Every metric
is printed by name with its unit, every output is verified, and the
exit code is non-zero if any operation failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``.

Load shape: a closed loop of one.  Each workload is measured in fresh
child processes run one at a time (never concurrently), single thread,
BLAS/OpenMP pinned to one thread.  A child imports the program, runs
one discarded warm-up pass (first-pass FFT planning and first-touch
allocation cost several times a steady pass), then timed passes.  An
untraced run starts ``CHILDREN`` such children and splits ``--seconds``
among them, so ``setup_s`` is a median over set-ups and ``wall_s`` a
median over passes from different process images; a traced run is one
child: a plain pass, the same pass under the span recorder, then the
micro-timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Launched as a script, Python puts bench/ first on sys.path, where
# bench/platform.py would shadow the standard library's ``platform``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Fresh processes per untraced run (one set-up each).
CHILDREN = 3
#: Timed budget when ``--seconds`` is not given (BENCHMARK.json run_seconds).
DEFAULT_SECONDS = 10
#: A workload whose calibration loop drifts more than this is ``noisy``.
DRIFT_LIMIT = 0.10
CHILD_TIMEOUT = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None, help="dataset seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="host seconds of timed passes per workload, split over the children"
        " (a traced run always times two passes)",
    )
    parser.add_argument(
        "--passes",
        type=int,
        default=None,
        help="timed passes per child instead of a time budget",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: traced run, per-layer metrics and a Chrome trace file",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"), help="directory for result and trace files"
    )
    parser.add_argument(
        "--pin",
        action="store_true",
        help="rewrite bench/expected.json from one pass at the default seed",
    )
    parser.add_argument("--child", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one process image -------------------------------------------------
def _rusage():
    import resource

    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "user_s": ru.ru_utime,
        "sys_s": ru.ru_stime,
        "minor_faults": ru.ru_minflt,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,  # KiB on Linux
    }


def _check_exact(passes, failures):
    first = passes[0].exact()
    for n, later in enumerate(passes[1:], start=2):
        if later.exact() != first:
            failures.append(
                f"pass {n}: simulated time, wire bytes, event count or CRCs"
                " differ from pass 1 at the same seed"
            )


def child(args) -> dict:
    """Measure one workload in this process; returns the report dict."""
    from bench import layers, micro
    from bench.trace import NullRecorder, Recorder, write_chrome_trace
    from bench.workloads import run_pass
    from repro.sim.core import events_dispatched_total

    null = NullRecorder()
    passes = [run_pass(args.workload, args.seed, null)]  # warm-up, discarded
    setup_s = time.time() - args.child
    calibration = [micro.calibration()]
    before = _rusage()
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    extra_failures = []

    if args.trace:
        passes.append(run_pass(args.workload, args.seed, null))
        recorder = Recorder(count=events_dispatched_total)
        mid = _rusage()
        traced = run_pass(args.workload, args.seed, recorder)
        after = _rusage()
        passes.append(traced)
        calibration.append(micro.calibration())
        observed = micro.observers(args.seed)
        metrics = layers.from_pass(traced.results, recorder)
        metrics.update(
            layers.from_micro(
                micro.engine_shapes(),
                micro.transport_sends(),
                micro.planning_primitives(),
                micro.kernel_rates(args.seed),
                observed,
            )
        )
        for key in ("user_s", "sys_s", "minor_faults"):
            metrics[f"host.{key}"] = after[key] - mid[key]
        metrics["host.bench_trace_overhead"] = traced.wall_s / passes[1].wall_s - 1.0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            recorder,
            out / f"trace.{args.workload}.json",
            meta={"workload": args.workload, "seed": args.seed},
        )
        report["per_layer"] = metrics
        report["spans"] = recorder.by_name()
        if not observed["identical"]:
            extra_failures.append(
                "observers: a traced or sampled replay changed the simulated summary"
            )
        if metrics["host.span_coverage"] < 0.95:
            extra_failures.append(
                f"spans cover {metrics['host.span_coverage']:.3f} of the pass (< 0.95)"
            )
    else:
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, args.seed, null))
            timed = len(passes) - 1
            if args.passes is not None:
                if timed >= args.passes:
                    break
            elif time.perf_counter() - begin >= args.seconds:
                break
        after = _rusage()
        calibration.append(micro.calibration())

    _check_exact(passes, extra_failures)
    drift = abs(calibration[-1] / calibration[0] - 1.0)
    timed_passes = passes[1:]
    report.update(
        walls=[p.wall_s for p in timed_passes],
        sim_time_s=passes[0].sim_time_s,
        sim_wire_mb=passes[0].sim_wire_mb,
        events=passes[0].events,
        peak_rss_mb=after["peak_rss_mb"],
        user_s=after["user_s"] - before["user_s"],
        sys_s=after["sys_s"] - before["sys_s"],
        minor_faults=after["minor_faults"] - before["minor_faults"],
        ops=sum(len(p.results) for p in passes),
        failed_ops=sum(p.failed_ops for p in passes) + len(extra_failures),
        failures=[f for p in passes for f in p.failures] + extra_failures,
        calibration_s=calibration,
        calibration_drift=drift,
    )
    if args.trace:
        report["per_layer"]["host.calibration_drift"] = drift
    return report


# -- parent: spawn, aggregate, print ------------------------------------------
def spawn(args, workload: str, seconds: float) -> dict:
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--out", args.out,
    ]
    if args.passes is not None:
        cmd += ["--passes", str(args.passes)]
    cmd += ["--child", repr(time.time())]
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
    )
    if done.returncode != 0:
        raise SystemExit(f"child for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(args, workload: str) -> dict:
    """All children of one workload, folded into one result."""
    n = 1 if args.trace else CHILDREN
    reports = [spawn(args, workload, args.seconds / n) for _ in range(n)]
    first = reports[0]
    exact = ("sim_time_s", "sim_wire_mb", "events")
    across = [
        "exact metrics differ between two processes at the same seed"
        for r in reports[1:]
        if [r[k] for k in exact] != [first[k] for k in exact]
    ]
    walls = [w for r in reports for w in r["walls"]]
    q1, q2, q3 = quartiles(walls)
    result = {
        "workload": workload,
        "seed": args.seed,
        "ops": sum(r["ops"] for r in reports),
        "failed_ops": sum(r["failed_ops"] for r in reports) + len(across),
        "failures": [f for r in reports for f in r["failures"]] + across,
        "noisy": any(r["calibration_drift"] > DRIFT_LIMIT for r in reports),
        "calibration_drift": max(r["calibration_drift"] for r in reports),
        "passes": walls,
        "wall_quartiles": [q1, q2, q3],
        "wall_range": [min(walls), max(walls)],
        "setups": [r["setup_s"] for r in reports],
        "host": {
            key: sum(r[key] for r in reports)
            for key in ("user_s", "sys_s", "minor_faults")
        },
        "end_to_end": {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": statistics.median(walls),
            # A high-water mark: it creeps up towards a ceiling as passes
            # repeat, so the largest child is the steadiest reading.
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "sim_time_s": first["sim_time_s"],
            "sim_wire_mb": first["sim_wire_mb"],
        },
    }
    if args.trace:
        result["per_layer"] = first["per_layer"]
        result["spans"] = first["spans"]
    return result


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def show(result: dict, which: str, spec) -> None:
    flag = "  NOISY (calibration drift > 10 %)" if result["noisy"] else ""
    print(
        f"== {result['workload']}  seed {result['seed']}  ops {result['ops']}"
        f"  failed_ops {result['failed_ops']}{flag}"
    )
    q1, q2, q3 = result["wall_quartiles"]
    lo, hi = result["wall_range"]
    print(
        f"   wall_s median {q2:.4f}  quartiles {q1:.4f}..{q3:.4f}"
        f"  range {lo:.4f}..{hi:.4f}  n {len(result['passes'])}"
        f"  drift {result['calibration_drift']:.3f}"
    )
    for name, unit, _better in spec:
        print(f"   {name:42s} {result[which][name]:>16.6g} {unit}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def pin(args) -> int:
    """Rewrite bench/expected.json: functional CRCs only, default seed."""
    from bench import platform as P
    from bench.trace import NullRecorder
    from bench.workloads import EXPECTED_PATH, WORKLOADS, cells_of

    crcs = {}
    for workload in WORKLOADS:
        crcs[workload] = {}
        for label, fn in cells_of(workload, P.DEFAULT_SEED):
            result = fn(NullRecorder())
            if result.failures:
                print(f"refusing to pin a failing cell: {result.failures}")
                return 1
            crcs[workload].update(result.crcs)
    doc = {
        "note": "functional CRCs at the default seed; timings and event"
        " counts are reported, never pinned (regenerate: bench/run.py --pin)",
        "seed": P.DEFAULT_SEED,
        "crcs": crcs,
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    from bench import layers
    from bench import platform as P
    from bench.workloads import WORKLOADS

    if args.seed is None:
        args.seed = P.DEFAULT_SEED
    if args.child is not None:
        print(json.dumps(child(args)))
        return 0
    if args.pin:
        return pin(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; pick from {sorted(WORKLOADS)}")

    which = "per_layer" if args.trace else "end_to_end"
    spec = layers.PER_LAYER if args.trace else layers.END_TO_END
    results = []
    for name in names:
        results.append(measure(args, name))
        show(results[-1], which, spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {"environment": environment(), "argv": sys.argv[1:], "results": results}
    stamp = "traced" if args.trace else "timed"
    path = out / f"result.{args.workload or 'all'}.{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

    units = {name: unit for name, unit, _ in spec}
    metrics = {}
    for result in results:
        prefix = "" if args.workload else f"{result['workload']}/"
        for name, value in result[which].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed_ops"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["ops"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
