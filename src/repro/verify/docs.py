"""The ``docs`` gate: links resolve, documented flags exist, the
scenario document matches the schema.

Three families of drift this catches:

1. **Internal links.**  Every relative markdown link — ``[text](path)``
   or ``[text](path#anchor)`` — in the checked documents must point at
   a file that exists, and when it carries an anchor, at a heading that
   renders to that anchor under GitHub's slug rules.

2. **CLI flags.**  Every ``--flag`` a document attributes to one of the
   repository's own tools must exist in that tool's real argparse
   parser: ``repro.harness`` (the runner and its ``report``
   subcommand) or ``repro.verify``.  Two places count as attributing a
   flag: fenced-code lines that invoke the tool — ``python -m
   repro.harness...`` / ``das-harness`` / ``python -m repro.verify...``,
   line continuations followed — which are held to that tool's parser,
   and inline code spans that consist of a flag, like ``--batch-max N``,
   which must exist in one of them.  Flags belonging to other tools
   (pip, pytest, ``scripts/profile_sim.py``) live in
   :data:`FOREIGN_FLAGS`.  An inline span naming a flag documents that
   flag even in a sentence saying it was removed, so a removed flag is
   named in prose, not as inline code.

3. **Scenario schema.**  docs/SCENARIOS.md must document every key of
   the scenario schema (``repro.scenarios.spec.SCHEMA_SECTIONS``),
   every declared check (``repro.scenarios.CHECKS``) and every shipped
   library scenario, each appearing somewhere as inline code; and
   every field-table row in that document (``| `token` | ...``) must
   name something the schema actually has — so the doc and the loader
   cannot drift apart in either direction.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from ..harness import report
from ..harness.runner import build_parser
from ..scenarios import CHECKS, library_names
from ..scenarios.spec import SCHEMA_SECTIONS

REPO = Path(__file__).resolve().parents[3]

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

#: Inline-code flags that belong to other tools, not this repository's.
FOREIGN_FLAGS = {
    "--no-build-isolation",  # pip
    "--benchmark-only",  # pytest-benchmark
    # scripts/profile_sim.py
    "--engine",
    "--sort",
    "--top",
}

#: Fenced-command pattern -> the tool whose parser its flags are held to.
TOOL_RES = {
    "harness": re.compile(r"repro\.harness|das-harness"),
    "verify": re.compile(r"repro\.verify"),
}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"--[a-zA-Z][\w-]*")
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


def _lines(doc: Path) -> Iterator[Tuple[int, str, bool]]:
    """``(lineno, line, in_fence)`` for every line but the fence markers."""
    in_fence = False
    for lineno, line in enumerate(doc.read_text().splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
        else:
            yield lineno, line, in_fence


def heading_anchors(path: Path) -> Set[str]:
    return {
        github_slug(line)
        for _, line, fenced in _lines(path)
        if not fenced and line.startswith("#")
    }


def check_links(doc: Path) -> List[str]:
    problems = []
    for lineno, line, fenced in _lines(doc):
        if fenced:
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


def tool_flags() -> Dict[str, Set[str]]:
    """Option strings of the real argparse parsers, per tool: the harness
    runner plus its report subcommand, and this package's own CLI."""
    from . import build_parser as verify_parser  # imports this module

    parsers = {
        "harness": (build_parser(), report.build_parser()),
        "verify": (verify_parser(),),
    }
    return {
        tool: {opt for p in group for a in p._actions for opt in a.option_strings}
        for tool, group in parsers.items()
    }


def _tool_of(line: str):
    return next((t for t, rx in TOOL_RES.items() if rx.search(line)), None)


def documented_flags(doc: Path) -> List[Tuple[int, str, str]]:
    """(line, flag, context) for every flag the doc pins on a tool;
    context is the tool a fenced command invokes, or ``"inline"``."""
    found = []
    continued = None  # tool of the command a trailing backslash continues
    for lineno, line, fenced in _lines(doc):
        if fenced:
            tool = _tool_of(line) or continued
            continued = tool if line.rstrip().endswith("\\") else None
            if tool:
                for flag in FLAG_RE.findall(line):
                    found.append((lineno, flag, tool))
        else:
            continued = None
            for span in INLINE_CODE_RE.findall(line):
                token = span.strip().split()[0] if span.strip() else ""
                if FLAG_RE.fullmatch(token) and token not in FOREIGN_FLAGS:
                    found.append((lineno, token, "inline"))
    return found


def check_flags(doc: Path, known: Dict[str, Set[str]]) -> List[str]:
    """``known`` is :func:`tool_flags`: a fenced command's flags must be
    in its own tool's parser, an inline flag in any tool's."""
    anywhere = set().union(*known.values())
    return [
        f"{_rel(doc)}:{lineno}: documented flag {flag!r} ({context}) does"
        " not exist in the argparse parser it is pinned on"
        for lineno, flag, context in documented_flags(doc)
        if flag not in known.get(context, anywhere)
    ]


def scenario_vocabulary() -> Set[str]:
    """Every name the scenario subsystem declares: schema keys per
    section, check-catalog entries, shipped library scenarios."""
    return set().union(*SCHEMA_SECTIONS.values(), CHECKS, library_names())


def check_scenario_fields(doc: Path, vocab: Set[str]) -> List[str]:
    """Both drift directions between the scenario doc and the schema:
    every vocabulary token must appear as inline code somewhere in the
    doc, and every field-table row (``| `token` | ...``) must name
    something the schema actually has."""
    problems = []
    documented: Set[str] = set()
    for lineno, line, fenced in _lines(doc):
        if fenced:
            continue
        for span in INLINE_CODE_RE.findall(line):
            documented.update(CODE_TOKEN_RE.findall(span))
        row = TABLE_FIELD_RE.match(line.strip())
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


def check_docs() -> List[str]:
    """Every problem across :data:`DOCUMENTS` (empty == clean)."""
    known = tool_flags()
    problems: List[str] = []
    for rel in DOCUMENTS:
        doc = REPO / rel
        if not doc.exists():
            problems.append(f"{rel}: listed in DOCUMENTS but missing")
            continue
        problems += check_links(doc)
        problems += check_flags(doc, known)
        if rel == SCENARIOS_DOC:
            problems += check_scenario_fields(doc, scenario_vocabulary())
    if not problems:
        print(
            f"  {len(DOCUMENTS)} documents clean (links resolve, flags match the"
            " harness and verify parsers, scenario doc matches the schema)"
        )
    return problems
