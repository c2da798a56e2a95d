#!/usr/bin/env python
"""Compare freshly generated BENCH_*.json payloads against baselines.

The acceptance gate for simulator changes: regenerate the benches into a
scratch directory, then run this script against the committed baselines
under ``benchmarks/``.  It enforces two different contracts:

* **Determinism** — everything except wall-clock must be *identical*:
  rows (simulated makespans, latency tails, byte counts, result-digest
  CRCs), shape-check claims and verdicts, event counts.  Any difference
  is a hard failure; an optimisation that changes simulated results is
  not an optimisation, it is a different simulator.

* **Performance** — the wall-clock fields (``wall_seconds`` /
  ``wall_seconds_total`` / ``*_per_wall_second``) are host-dependent, so
  they are stripped from the exact comparison and instead gated by a
  relative tolerance on each file's ``wall_seconds_total`` (default
  +20%).  Comparing walls across *different* hosts is only a smoke
  guard — pass a wider ``--wall-tolerance`` there, and treat the tight
  default as the bar for same-host before/after runs.

``--history-dir`` additionally keeps an **append-only ledger**: one
JSONL line per checked file per run (``benchmarks/history/<name>.jsonl``
holds the bench name, ``scale_kb``, ``events_dispatched_total``, the
wall total, events/wall-second, and the run's verdict).  Before
appending, the candidate is gated against the most recent *passing*
ledger entry at the same scale: ``events_dispatched_total`` must match
exactly (the event count is deterministic — any drift means the
simulator changed behind the baselines' back), and with
``--throughput-tolerance`` the events-per-wall-second figure may not
drop more than the given fraction below the recorded run (a
same-host-only gate, like ``--wall-tolerance``).

A **newly added bench** — a candidate file with no committed baseline
and no ledger yet — is not an error when ``--history-dir`` is given:
the baseline diff is skipped (there is nothing to diff against), the
run seeds the bench's ledger as its first recorded entry, and the file
passes.  The next run then has a reference.  Without ``--history-dir``
a missing baseline stays a hard failure, as before.

``--attribution-dir`` (default ``benchmarks/attribution``) additionally
gates the committed ``*.attribution.json`` tracer fixtures: every
fixture's span-tree coverage must stay at or above 95% of each finished
request's latency and its critical-path stage decomposition must sum to
each request's latency within 1% — the tracer's acceptance bounds,
re-enforced here so a simulator change cannot quietly erode them behind
the trace bench's back.  The headline figures are also re-derived from
the fixture's per-request rows, so a fixture edited by hand (or a
regeneration that drops rows) fails rather than being taken at its
word.  Pass an empty string to skip the gate.

Usage::

    PYTHONPATH=src python -m repro.harness all --bench-dir /tmp/bench
    python scripts/check_regression.py --candidate /tmp/bench
    python scripts/check_regression.py --candidate /tmp/bench --no-wall
    python scripts/check_regression.py --candidate /tmp/bench \
        --history-dir benchmarks/history --throughput-tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Host-dependent fields, stripped everywhere before the exact diff.
VOLATILE_KEYS = frozenset(
    {
        "wall_seconds",
        "wall_seconds_total",
        "events_per_wall_second",
        "requests_per_wall_second",
    }
)

#: Default relative wall-clock regression tolerance (+20%).
WALL_TOLERANCE = 0.20

#: Tracer acceptance bounds, mirrored from ``repro.harness.replays``
#: (kept literal so this script stays stdlib-only).
MIN_COVERAGE = 0.95
MAX_ATTRIBUTION_ERROR = 0.01


def strip_volatile(doc):
    """Recursively drop the host-dependent keys from a payload."""
    if isinstance(doc, dict):
        return {
            k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS
        }
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


def diff_paths(a, b, path="$", out=None, limit=20):
    """Human-readable JSON-paths where two stripped payloads differ."""
    if out is None:
        out = []
    if len(out) >= limit:
        return out
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in candidate")
            elif k not in b:
                out.append(f"{path}.{k}: only in baseline")
            else:
                diff_paths(a[k], b[k], f"{path}.{k}", out, limit)
            if len(out) >= limit:
                break
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diff_paths(x, y, f"{path}[{i}]", out, limit)
                if len(out) >= limit:
                    break
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")
    return out


def check_file(baseline: Path, candidate: Path, wall_tolerance, check_wall: bool):
    """Returns a list of failure strings (empty = pass) for one file."""
    base = json.loads(baseline.read_text())
    cand = json.loads(candidate.read_text())
    failures = []

    if base.get("scale_kb") != cand.get("scale_kb"):
        return [
            f"scale_kb mismatch (baseline {base.get('scale_kb')},"
            f" candidate {cand.get('scale_kb')}) — payloads are not comparable;"
            " regenerate at the baseline's scale"
        ]

    drift = diff_paths(strip_volatile(cand), strip_volatile(base))
    if drift:
        failures.append("deterministic payload drift:")
        failures.extend(f"  {d}" for d in drift)

    if check_wall:
        base_wall = float(base.get("wall_seconds_total", 0.0))
        cand_wall = float(cand.get("wall_seconds_total", 0.0))
        if base_wall > 0 and cand_wall > base_wall * (1.0 + wall_tolerance):
            failures.append(
                f"wall-clock regression: {cand_wall:.3f}s vs baseline"
                f" {base_wall:.3f}s (>{wall_tolerance:.0%} over)"
            )
        else:
            print(
                f"  wall {cand_wall:.3f}s vs baseline {base_wall:.3f}s"
                f" (tolerance +{wall_tolerance:.0%})"
            )
    return failures


def check_attribution_file(path: Path):
    """Gate one committed attribution fixture; returns failure strings."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable ({exc})"]
    failures = []
    rows = doc.get("per_request") or []
    requests = doc.get("requests")
    if not rows or requests != len(rows):
        failures.append(
            f"per-request table has {len(rows)} rows but claims"
            f" {requests} requests"
        )
    min_cov = doc.get("min_coverage")
    max_err = doc.get("max_attribution_error")
    if not isinstance(min_cov, (int, float)) or min_cov < MIN_COVERAGE:
        failures.append(
            f"span coverage floor {min_cov!r} below the"
            f" {MIN_COVERAGE:.0%} acceptance bound"
        )
    if not isinstance(max_err, (int, float)) or max_err > MAX_ATTRIBUTION_ERROR:
        failures.append(
            f"attribution error {max_err!r} above the"
            f" {MAX_ATTRIBUTION_ERROR:.0%} acceptance bound"
        )
    if rows and not failures:
        # Re-derive the headlines so an edited fixture can't vouch for
        # itself.  Coverage is defined over finished requests only.
        finished = [
            r for r in rows if r.get("outcome") not in ("expired", "failed")
        ]
        derived_cov = min((r.get("coverage", 0.0) for r in finished), default=0.0)
        if finished and derived_cov < min_cov - 1e-9:
            failures.append(
                f"per-request rows put min coverage at {derived_cov:.4f},"
                f" below the headline {min_cov:.4f}"
            )
    if not failures:
        print(
            f"  {path.name}: {len(rows)} request(s), coverage >="
            f" {min_cov:.4f}, attribution error <= {max_err:.6f}"
        )
    return failures


def check_attribution_dir(attribution_dir: Path):
    """Gate every committed ``*.attribution.json`` fixture."""
    fixtures = sorted(attribution_dir.glob("*.attribution.json"))
    if not fixtures:
        return [f"{attribution_dir}/: no *.attribution.json fixtures"]
    failures = []
    for path in fixtures:
        failures += [f"{path.name}: {f}" for f in check_attribution_file(path)]
    return failures


def history_gate(
    history_dir: Path,
    name: str,
    cand: dict,
    file_ok: bool,
    throughput_tolerance,
):
    """Gate ``cand`` against the ledger, then append this run to it.

    Returns the list of history failures.  The appended entry records
    the final verdict (file checks *and* history gates), and only
    passing entries are compared against later — a bad run is logged
    but never becomes the reference.
    """
    failures = []
    path = history_dir / (Path(name).stem + ".jsonl")
    prior = None
    if path.exists():
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            if (
                entry.get("scale_kb") == cand.get("scale_kb")
                and entry.get("checks_pass")
            ):
                prior = entry  # last passing run at this scale wins
    if prior is not None:
        base_events = prior.get("events_dispatched_total")
        cand_events = cand.get("events_dispatched_total")
        if base_events is not None and cand_events != base_events:
            failures.append(
                f"events-dispatched drift vs history: {cand_events} !="
                f" {base_events} (last passing run at scale_kb"
                f" {cand.get('scale_kb')})"
            )
        if throughput_tolerance is not None:
            base_eps = float(prior.get("events_per_wall_second") or 0.0)
            cand_eps = float(cand.get("events_per_wall_second") or 0.0)
            if base_eps > 0 and cand_eps < base_eps * (1.0 - throughput_tolerance):
                failures.append(
                    f"throughput regression vs history: {cand_eps:.0f}"
                    f" events/wall-second vs {base_eps:.0f} recorded"
                    f" (>{throughput_tolerance:.0%} below)"
                )
        if not failures:
            print(
                f"  history: events {cand.get('events_dispatched_total')}"
                f" match the last passing run"
            )
    else:
        print(f"  history: first recorded run at scale_kb {cand.get('scale_kb')}")
    history_dir.mkdir(parents=True, exist_ok=True)
    entry = {
        "bench": cand.get("bench"),
        "scale_kb": cand.get("scale_kb"),
        "events_dispatched_total": cand.get("events_dispatched_total"),
        "wall_seconds_total": cand.get("wall_seconds_total"),
        "events_per_wall_second": cand.get("events_per_wall_second"),
        "checks_pass": file_ok and not failures,
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="benchmarks", metavar="DIR",
                        help="directory of committed baselines (default benchmarks/)")
    parser.add_argument("--candidate", required=True, metavar="DIR",
                        help="directory of freshly generated BENCH files")
    parser.add_argument("--files", nargs="*", default=None, metavar="NAME",
                        help="specific BENCH_*.json names (default: every"
                             " baseline file present in the candidate dir)")
    parser.add_argument("--wall-tolerance", type=float, default=WALL_TOLERANCE,
                        help="relative wall_seconds_total regression allowed"
                             " (default 0.20 = +20%%)")
    parser.add_argument("--no-wall", action="store_true",
                        help="skip the wall-clock gate (determinism only)")
    parser.add_argument("--history-dir", default=None, metavar="DIR",
                        help="append-only JSONL perf ledger; gates the"
                             " candidate's events_dispatched_total against"
                             " the last passing run at the same scale")
    parser.add_argument("--throughput-tolerance", type=float, default=None,
                        metavar="FRACTION",
                        help="with --history-dir: allowed relative drop in"
                             " events_per_wall_second vs the last passing"
                             " run (same-host only; off by default)")
    parser.add_argument("--attribution-dir", default="benchmarks/attribution",
                        metavar="DIR",
                        help="committed *.attribution.json fixtures to gate"
                             " on the tracer's coverage/attribution bounds"
                             " (default benchmarks/attribution; empty"
                             " string skips)")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    candidate_dir = Path(args.candidate)
    if args.files:
        names = args.files
    else:
        names = sorted(
            p.name
            for p in baseline_dir.glob("BENCH_*.json")
            if (candidate_dir / p.name).exists()
        )
        if args.history_dir is not None:
            # With a ledger, candidate-only files are newly added benches
            # to seed, not strays to ignore.
            names = sorted(
                set(names) | {p.name for p in candidate_dir.glob("BENCH_*.json")}
            )
    if not names:
        print(
            f"no BENCH_*.json files to compare between {baseline_dir}/"
            f" and {candidate_dir}/",
            file=sys.stderr,
        )
        return 2

    failed = 0
    for name in names:
        base_path = baseline_dir / name
        cand_path = candidate_dir / name
        new_bench = not base_path.exists() and args.history_dir is not None
        missing = [
            str(p)
            for p in (base_path, cand_path)
            if not p.exists() and not (new_bench and p is base_path)
        ]
        if missing:
            print(f"FAIL {name}: missing {', '.join(missing)}")
            failed += 1
            continue
        if new_bench:
            print(
                f"checking {name} ... no committed baseline — newly added"
                " bench, seeding its history ledger"
            )
            failures = []
        else:
            print(f"checking {name} ...")
            failures = check_file(
                base_path, cand_path, args.wall_tolerance, not args.no_wall
            )
        if args.history_dir is not None:
            failures += history_gate(
                Path(args.history_dir),
                name,
                json.loads(cand_path.read_text()),
                file_ok=not failures,
                throughput_tolerance=args.throughput_tolerance,
            )
        if failures:
            failed += 1
            print(f"FAIL {name}:")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"PASS {name}")
    if args.attribution_dir:
        attribution_dir = Path(args.attribution_dir)
        if attribution_dir.is_dir():
            print(f"checking attribution fixtures under {attribution_dir}/ ...")
            attribution_failures = check_attribution_dir(attribution_dir)
            if attribution_failures:
                failed += 1
                names.append(str(attribution_dir))
                print(f"FAIL {attribution_dir}/:")
                for line in attribution_failures:
                    print(f"  {line}")
            else:
                print(f"PASS {attribution_dir}/")
    if failed:
        print(f"{failed}/{len(names)} BENCH file(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(names)} BENCH file(s) match their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
