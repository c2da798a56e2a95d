"""Plain-text table rendering for experiment reports.

The harness prints the same rows/series the paper's figures plot, plus
a shape-check section stating whether each of the paper's qualitative
claims held in this run.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple


def format_table(rows: Sequence[Dict[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Fixed-width text table from dict rows."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    return f"{header}\n{rule}\n{body}"


def format_checks(checks: Sequence[Tuple[str, bool]]) -> str:
    """Render the shape-check verdicts."""
    lines = ["shape checks:"]
    for claim, ok in checks:
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {claim}")
    return "\n".join(lines)
