#!/usr/bin/env python
"""Docs-consistency checker: links resolve, documented flags exist.

Run from the repository root (CI runs it on every push)::

    python scripts/check_docs.py

Two families of drift this catches:

1. **Internal links.**  Every relative markdown link — ``[text](path)``
   or ``[text](path#anchor)`` — in the checked documents must point at
   a file that exists, and when it carries an anchor, at a heading that
   renders to that anchor under GitHub's slug rules.

2. **CLI flags.**  Every ``--flag`` a document attributes to the
   harness must exist in ``repro.harness.runner.build_parser()`` or in
   the report subcommand's (``repro.harness.report``).  Two places
   count as
   "attributing to the harness": fenced-code lines that invoke
   ``python -m repro.harness...`` or ``das-harness`` (line
   continuations followed), and inline code spans that consist of a
   flag, like ``--batch-max N``.  Flags belonging to other tools
   (pip, pytest) live in :data:`FOREIGN_FLAGS`.

3. **Scenario schema.**  docs/SCENARIOS.md must document every key of
   the scenario schema (``repro.scenarios.spec.SCHEMA_SECTIONS``),
   every declared check (``repro.scenarios.CHECKS``) and every shipped
   library scenario, each appearing somewhere as inline code; and
   every field-table row in that document (``| `token` | ...``) must
   name something the schema actually has — so the doc and the loader
   cannot drift apart in either direction.

Stdlib only (the flag/schema checks import the repo's own package);
exits non-zero listing every problem found.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Documents swept for links and flags (relative to the repo root).
DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
    "docs/OBSERVABILITY.md",
    "docs/OPERATIONS.md",
    "docs/PAPER_MAP.md",
    "docs/RESULTS.md",
    "docs/SCENARIOS.md",
)

#: The document held to the scenario-schema vocabulary.
SCENARIOS_DOC = "docs/SCENARIOS.md"

#: Inline-code flags that belong to other tools, not the harness.
FOREIGN_FLAGS = {
    "--no-build-isolation",  # pip
    "--benchmark-only",  # pytest-benchmark
    # scripts/profile_sim.py
    "--engine",
    "--sort",
    "--top",
    # scripts/check_regression.py
    "--baseline",
    "--candidate",
    "--files",
    "--wall-tolerance",
    "--no-wall",
    "--history-dir",
    "--throughput-tolerance",
    # scripts/check_results.py
    "--results",
    "--update",
    # scripts/check_telemetry.py
    "--expect-fired",
    "--expect-resolved",
}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"--[a-zA-Z][\w-]*")
HARNESS_CMD_RE = re.compile(r"repro\.harness|das-harness")
TABLE_FIELD_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")
CODE_TOKEN_RE = re.compile(r"[A-Za-z][\w-]*")


def _rel(doc: Path):
    """Repo-relative path for messages (the doc itself when outside the
    repo, as in the checker's own tests)."""
    try:
        return doc.relative_to(REPO)
    except ValueError:
        return doc


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line (close enough: lowercase,
    drop everything but word characters/spaces/hyphens, spaces to
    hyphens)."""
    text = heading.strip().lstrip("#").strip()
    # Inline code/emphasis markers render to nothing in the anchor.
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def heading_anchors(path: Path) -> Set[str]:
    anchors: Set[str] = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            anchors.add(github_slug(line))
    return anchors


def check_links(doc: Path) -> List[str]:
    problems = []
    in_fence = False
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            where = f"{_rel(doc)}:{lineno}"
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{where}: broken link {target!r}"
                        f" (no such file {path_part!r})"
                    )
                    continue
            else:
                resolved = doc
            if anchor and resolved.suffix == ".md":
                if anchor not in heading_anchors(resolved):
                    problems.append(
                        f"{where}: broken anchor {target!r}"
                        f" (no heading slugs to #{anchor})"
                    )
    return problems


def harness_flags() -> Set[str]:
    """Option strings of the real harness argparse parsers (the main
    runner and the report subcommand)."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.harness import report
    from repro.harness.runner import build_parser

    flags: Set[str] = set()
    for parser in (build_parser(), report.build_parser()):
        for action in parser._actions:
            flags.update(action.option_strings)
    return flags


def documented_flags(doc: Path) -> List[Tuple[int, str, str]]:
    """(line, flag, context) for every flag the doc pins on the harness."""
    found = []
    in_fence = False
    continuation_is_harness = False
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        stripped = line.strip()
        if FENCE_RE.match(stripped):
            in_fence = not in_fence
            continuation_is_harness = False
            continue
        if in_fence:
            is_harness = bool(HARNESS_CMD_RE.search(line)) or continuation_is_harness
            continuation_is_harness = is_harness and stripped.endswith("\\")
            if is_harness:
                for flag in FLAG_RE.findall(line):
                    found.append((lineno, flag, "command"))
        else:
            for span in INLINE_CODE_RE.findall(line):
                token = span.strip().split()[0] if span.strip() else ""
                if FLAG_RE.fullmatch(token) and token not in FOREIGN_FLAGS:
                    found.append((lineno, token, "inline"))
    return found


def check_flags(doc: Path, known: Set[str]) -> List[str]:
    return [
        f"{_rel(doc)}:{lineno}: documented flag {flag!r}"
        f" ({context}) does not exist in the harness parser"
        for lineno, flag, context in documented_flags(doc)
        if flag not in known
    ]


def scenario_vocabulary() -> Set[str]:
    """Every name the scenario subsystem declares: schema keys per
    section, check-catalog entries, shipped library scenarios."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.scenarios import CHECKS, library_names
    from repro.scenarios.spec import SCHEMA_SECTIONS

    vocab: Set[str] = set()
    for keys in SCHEMA_SECTIONS.values():
        vocab.update(keys)
    vocab.update(CHECKS)
    vocab.update(library_names())
    return vocab


def check_scenario_fields(doc: Path, vocab: Set[str]) -> List[str]:
    """Both drift directions between the scenario doc and the schema:
    every vocabulary token must appear as inline code somewhere in the
    doc, and every field-table row (``| `token` | ...``) must name
    something the schema actually has."""
    problems = []
    documented: Set[str] = set()
    in_fence = False
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        stripped = line.strip()
        if FENCE_RE.match(stripped):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in INLINE_CODE_RE.findall(line):
            documented.update(CODE_TOKEN_RE.findall(span))
        row = TABLE_FIELD_RE.match(stripped)
        if row and row.group(1) not in vocab:
            problems.append(
                f"{_rel(doc)}:{lineno}: table documents {row.group(1)!r}"
                " but the scenario schema declares no such"
                " field/check/scenario"
            )
    for token in sorted(vocab - documented):
        problems.append(
            f"{_rel(doc)}: schema token {token!r} is never mentioned"
            " as inline code (document it or remove it from the schema)"
        )
    return problems


def main() -> int:
    known = harness_flags()
    problems: List[str] = []
    checked = 0
    for rel in DOCUMENTS:
        doc = REPO / rel
        if not doc.exists():
            problems.append(f"{rel}: listed in DOCUMENTS but missing")
            continue
        checked += 1
        problems += check_links(doc)
        problems += check_flags(doc, known)
        if rel == SCENARIOS_DOC:
            problems += check_scenario_fields(doc, scenario_vocabulary())
    if problems:
        print(f"docs-consistency: {len(problems)} problem(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"docs-consistency: {checked} documents clean"
        f" (links resolve, flags match the harness parser)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
