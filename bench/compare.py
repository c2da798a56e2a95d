#!/usr/bin/env python3
"""Compare paired benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT1.json CHANGE1.json [PARENT2.json CHANGE2.json ...]

Arguments are the ``result.*.timed.json`` files bench/run.py writes,
taken two at a time: each (parent, change) pair is one paired run at
one seed.  For every workload x end-to-end metric one row is printed —
each side's median, quartiles and n, the ratio with its base — and a
verdict from the bounds in BENCHMARK.json:

* ``improved``   the change wins at least nine tenths of the pairs
  (ties count for neither), there are at least ten pairs, and the
  medians differ by more than the parent's own interquartile range;
* ``regressed``  the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` the parent's run-to-run spread is wider than the
  bound, so neither of the above nor "unchanged" can be said — unless
  every run of the change reads better than every run of the parent;
* ``unchanged``  otherwise.

The simulated metrics are exact: they compare by equality at equal
seeds, whatever the bound.  Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: Simulated, bit-reproducible metrics: any difference is a behaviour change.
EXACT = ("sim_time_s", "sim_wire_mb")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """``{workload: (seed, {metric: value})}`` of one result file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {r["workload"]: (r["seed"], r["end_to_end"]) for r in doc["results"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, bound, lower_is_better=True):
    """Apply the rule above to paired value lists of one host metric."""
    sign = 1.0 if lower_is_better else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    iqr = p_q3 - p_q1
    worse = sign * (c_med - p_med) / p_med
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    noisy = iqr / p_med > bound
    if (
        worse < 0
        and len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and abs(c_med - p_med) > iqr
    ):
        return "improved"
    if noisy and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def exact_verdict(parent, change, lower_is_better=True):
    if parent == change:
        return "unchanged"
    sign = 1.0 if lower_is_better else -1.0
    if all(sign * (c - p) <= 0 for p, c in zip(parent, change)):
        return "improved"
    return "regressed"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__)
        return 2
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    specs = {m["name"]: m for m in manifest["end_to_end"]}
    runs = [load(p) for p in paths]
    pairs = list(zip(runs[0::2], runs[1::2]))

    regressed = False
    print(
        f"{'workload':14s} {'metric':12s} {'parent med [q1..q3]':>30s}"
        f" {'change med [q1..q3]':>30s} {'n':>3s} {'ratio of parent':>20s} verdict"
    )
    for workload in pairs[0][0]:
        for name, spec in specs.items():
            parent, change = [], []
            for before, after in pairs:
                if workload not in before or workload not in after:
                    continue
                if before[workload][0] != after[workload][0]:
                    raise SystemExit(f"{workload}: a pair was run at two seeds")
                parent.append(before[workload][1][name])
                change.append(after[workload][1][name])
            if not parent:
                continue
            lower = spec["better"] == "lower"
            if name in EXACT:
                word = exact_verdict(parent, change, lower)
            else:
                word = verdict(parent, change, spec["bound"], lower)
            regressed |= word == "regressed"

            def cell(values):
                q1, q2, q3 = quartiles(values)
                return f"{q2:.5g} [{q1:.5g}..{q3:.5g}]"

            base = statistics.median(parent)
            print(
                f"{workload:14s} {name:12s} {cell(parent):>30s} {cell(change):>30s}"
                f" {len(parent):3d} {statistics.median(change) / base:7.4f} of {base:<9.5g}"
                f" {word}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
