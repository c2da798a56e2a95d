"""What one experiment produced: rows, shape checks, rendered text."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..metrics.report import format_checks, format_table


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    experiment: str
    title: str
    rows: List[dict]
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    notes: str = ""
    #: Checks from the observer replays (the tracer's and the sampler's
    #: non-perturbation proofs and artifact bounds).  They gate the run
    #: like ``checks`` do, but stay out of the recorded ``BENCH_*.json``
    #: trajectory: the payload must be bit-identical whether or not a
    #: diagnostic flag was passed.
    aux_checks: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks) and all(
            ok for _, ok in self.aux_checks
        )

    def to_text(self) -> str:
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.notes:
            parts.append(self.notes)
        parts.append(format_table(self.rows))
        if self.checks or self.aux_checks:
            parts.append(format_checks(self.checks + self.aux_checks))
        return "\n\n".join(parts)
