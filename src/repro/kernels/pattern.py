"""Data-dependence patterns (paper Section III-B, "Kernel Features").

A pattern describes which data elements an operator needs in order to
process one element, as signed offsets in *element index* space.  The
paper records patterns in a small text format::

    Name:flow-routing
    Dependence: -imgWidth+1, -imgWidth, -imgWidth-1, -1, 1,
                imgWidth-1, imgWidth, imgWidth+1

Offsets may reference the symbolic raster width ``imgWidth`` because a
file is a flat byte array and the raster's row stride is only known per
file.  Internally each offset is an :class:`OffsetTerm` —
``width_coef * imgWidth + const`` — resolved against a concrete width
when a file is bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import PatternParseError

_WIDTH_SYMBOL = "imgWidth"

#: One signed term of an offset expression: optional coefficient times
#: imgWidth, or a bare integer.
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+)\s*\*?\s*(?=imgWidth))?(?P<what>imgWidth|\d+)\s*"
)


@dataclass(frozen=True, order=True)
class OffsetTerm:
    """A symbolic element offset: ``width_coef * imgWidth + const``."""

    width_coef: int
    const: int

    def resolve(self, width: int) -> int:
        return self.width_coef * width + self.const

    def to_text(self) -> str:
        parts: List[str] = []
        if self.width_coef:
            if self.width_coef == 1:
                parts.append(_WIDTH_SYMBOL)
            elif self.width_coef == -1:
                parts.append(f"-{_WIDTH_SYMBOL}")
            else:
                parts.append(f"{self.width_coef}*{_WIDTH_SYMBOL}")
        if self.const or not parts:
            if parts:
                parts.append(f"{'+' if self.const >= 0 else '-'}{abs(self.const)}")
            else:
                parts.append(str(self.const))
        return "".join(parts)


def _parse_offset(text: str) -> OffsetTerm:
    """Parse one offset expression like ``-imgWidth+1`` or ``-3``."""
    pos = 0
    width_coef = 0
    const = 0
    seen_any = False
    stripped = text.strip()
    if not stripped:
        raise PatternParseError("empty offset expression")
    while pos < len(stripped):
        match = _TERM_RE.match(stripped, pos)
        if match is None or match.end() == pos:
            raise PatternParseError(f"cannot parse offset {text!r} at {stripped[pos:]!r}")
        sign = -1 if match.group("sign") == "-" else 1
        if match.group("sign") == "" and seen_any:
            raise PatternParseError(f"missing sign between terms in {text!r}")
        what = match.group("what")
        coef_text = match.group("coef")
        if what == _WIDTH_SYMBOL:
            width_coef += sign * (int(coef_text) if coef_text else 1)
        else:
            if coef_text:
                raise PatternParseError(f"unexpected coefficient in {text!r}")
            const += sign * int(what)
        seen_any = True
        pos = match.end()
    return OffsetTerm(width_coef, const)


class DependencePattern:
    """A named set of dependence offsets for one operator."""

    def __init__(self, name: str, terms: Iterable[OffsetTerm]):
        self.name = name
        # Deterministic order; duplicates removed.
        self.terms: Tuple[OffsetTerm, ...] = tuple(sorted(set(terms)))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_offsets(cls, name: str, offsets: Sequence[int]) -> "DependencePattern":
        """Pattern from concrete (non-symbolic) element offsets."""
        return cls(name, (OffsetTerm(0, int(o)) for o in offsets))

    @classmethod
    def eight_neighbor(cls, name: str) -> "DependencePattern":
        """The paper's flagship pattern: all 8 raster neighbours."""
        terms = [
            OffsetTerm(dr, dc)
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if not (dr == 0 and dc == 0)
        ]
        return cls(name, terms)

    @classmethod
    def four_neighbor(cls, name: str) -> "DependencePattern":
        return cls(
            name,
            [OffsetTerm(-1, 0), OffsetTerm(1, 0), OffsetTerm(0, -1), OffsetTerm(0, 1)],
        )

    @classmethod
    def stride(cls, name: str, stride: int) -> "DependencePattern":
        """The two-element ±stride pattern of the paper's Fig. 6."""
        return cls(name, [OffsetTerm(0, -stride), OffsetTerm(0, stride)])

    @classmethod
    def independent(cls, name: str) -> "DependencePattern":
        """No dependence — the ideal active-storage access pattern."""
        return cls(name, [])

    # -- resolution ----------------------------------------------------------------
    def _resolved(self, width: int) -> List[int]:
        if width <= 0 and any(t.width_coef for t in self.terms):
            raise PatternParseError(
                f"pattern {self.name!r} is width-dependent but width={width!r}"
            )
        return [t.resolve(width) for t in self.terms]

    def offsets(self, width: int) -> np.ndarray:
        """Concrete element offsets for a raster of ``width`` columns."""
        return np.array(sorted(self._resolved(width)), dtype=np.int64)

    def reach(self, width: int) -> int:
        """Maximum absolute offset — how far dependent data can be."""
        return max(map(abs, self._resolved(width)), default=0)

    def reach_before(self, width: int) -> int:
        return max(0, -min(self._resolved(width), default=0))

    def reach_after(self, width: int) -> int:
        return max(0, max(self._resolved(width), default=0))

    @property
    def is_independent(self) -> bool:
        return not self.terms

    def halo_rows(self) -> int:
        """Conservative dependence reach in raster rows.

        Per term: |width coefficient| rows, plus one more when the term
        has a constant part that can spill across a row boundary (e.g.
        ``-imgWidth-1`` reaches two rows up when processing column 0,
        while a bare ``-1`` reaches at most one row up)."""
        if not self.terms:
            return 0
        return max(
            abs(t.width_coef) + (1 if t.const else 0) for t in self.terms
        )

    # -- (de)serialisation in the paper's record format ----------------------
    def to_text(self) -> str:
        offsets = ", ".join(t.to_text() for t in self.terms)
        return f"Name:{self.name}\nDependence: {offsets}\n"

    @classmethod
    def parse(cls, text: str) -> List["DependencePattern"]:
        """Parse one or more records in the paper's text format."""
        patterns: List[DependencePattern] = []
        name: str | None = None
        pending_deps: str | None = None

        def flush() -> None:
            nonlocal name, pending_deps
            if name is None:
                return
            deps = (pending_deps or "").strip()
            terms = (
                [_parse_offset(tok) for tok in deps.split(",") if tok.strip()]
                if deps
                else []
            )
            patterns.append(cls(name, terms))
            name, pending_deps = None, None

        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            lowered = line.lower()
            if lowered.startswith("name:"):
                flush()
                name = line[len("name:"):].strip()
                if not name:
                    raise PatternParseError("record with empty operator name")
            elif lowered.startswith("dependence:"):
                if name is None:
                    raise PatternParseError("Dependence: before any Name:")
                pending_deps = line[len("dependence:"):]
            elif name is not None and pending_deps is not None:
                # Continuation line of a wrapped Dependence list.
                pending_deps += " " + line
            else:
                raise PatternParseError(f"unexpected line {raw_line!r}")
        flush()
        if not patterns:
            raise PatternParseError("no records found")
        return patterns

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DependencePattern)
            and self.name == other.name
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.name, self.terms))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DependencePattern {self.name!r} terms={len(self.terms)}>"
