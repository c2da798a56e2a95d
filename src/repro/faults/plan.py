"""Deterministic fault schedules.

A :class:`FaultPlan` is an immutable, time-sorted list of
:class:`FaultEvent` records saying *what* breaks (or recovers) *when*.
Plans can be built three ways, all deterministic:

* in code — ``FaultPlan.single_crash("s1", at=2.0, recover_at=4.0)``;
* from a **chaos spec** string (a scenario document's ``chaos.spec``) —
  ``"crash:s1@2.0;recover:s1@4.0;slow:s2@1.0x0.25;cut:c0-s3@1.0"``;
* from a seeded RNG — ``FaultPlan.random(rng, servers, duration)``.

The plan itself never touches the cluster; a
:class:`~repro.faults.injector.FaultInjector` applies it at simulated
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import FaultSpecError

#: Recognised event kinds.
KINDS = ("crash", "recover", "slow", "restore", "cut", "heal")

_PAIRWISE = frozenset({"cut", "heal"})


def _num(value: float) -> str:
    """Shortest text that parses back to exactly ``value`` (``2`` for 2.0)."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or repair).

    ``target`` names a node for ``crash``/``recover``/``slow``/
    ``restore``; for ``cut``/``heal`` the affected link is the pair
    ``(target, peer)``.  ``factor`` is the throughput multiplier for
    ``slow`` (ignored otherwise).
    """

    at: float
    kind: str
    target: str
    peer: Optional[str] = None
    factor: float = 1.0

    def __post_init__(self):
        if self.at < 0:
            raise FaultSpecError(f"fault time must be >= 0, got {self.at!r}")
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if self.kind in _PAIRWISE and not self.peer:
            raise FaultSpecError(f"{self.kind!r} needs a peer node (target-peer)")
        if self.kind not in _PAIRWISE and self.peer:
            raise FaultSpecError(f"{self.kind!r} takes a single target, not a pair")
        if self.kind == "slow" and not 0.0 < self.factor <= 1.0:
            raise FaultSpecError(
                f"slow factor must be in (0, 1], got {self.factor!r}"
            )

    def spec(self) -> str:
        """This event in chaos-spec syntax (parse/format round-trips)."""
        target = f"{self.target}-{self.peer}" if self.peer else self.target
        suffix = f"x{_num(self.factor)}" if self.kind == "slow" else ""
        return f"{self.kind}:{target}@{_num(self.at)}{suffix}"


def _parse_clause(clause: str) -> FaultEvent:
    try:
        kind, rest = clause.split(":", 1)
        target, when = rest.rsplit("@", 1)
    except ValueError:
        raise FaultSpecError(
            f"bad chaos clause {clause!r} (expected 'kind:target@time')"
        ) from None
    kind = kind.strip().lower()
    factor = 1.0
    if kind == "slow" and "x" in when:
        when, factor_text = when.split("x", 1)
        try:
            factor = float(factor_text)
        except ValueError:
            raise FaultSpecError(f"bad slow factor in {clause!r}") from None
    try:
        at = float(when)
    except ValueError:
        raise FaultSpecError(f"bad fault time in {clause!r}") from None
    peer = None
    target = target.strip()
    if kind in _PAIRWISE:
        if target.count("-") != 1:
            raise FaultSpecError(
                f"{kind!r} target must be 'a-b' in {clause!r}"
            )
        target, peer = (part.strip() for part in target.split("-"))
    return FaultEvent(at=at, kind=kind, target=target, peer=peer, factor=factor)


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, time-sorted schedule of :class:`FaultEvent` s."""

    events: Tuple[FaultEvent, ...] = ()

    @classmethod
    def from_events(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        ordered = sorted(
            events, key=lambda e: (e.at, KINDS.index(e.kind), e.target, e.peer or "")
        )
        return cls(events=tuple(ordered))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a chaos-spec string.

        Grammar: semicolon-separated clauses ``kind:target@time``;
        ``slow`` appends ``xFACTOR`` to the time; ``cut``/``heal``
        target a link as ``a-b``.  Example::

            crash:s1@2.0;recover:s1@4.0;slow:s2@1.0x0.25;cut:c0-s3@1.0
        """
        clauses = [c.strip() for c in spec.split(";") if c.strip()]
        if not clauses:
            raise FaultSpecError(f"chaos spec {spec!r} contains no clauses")
        return cls.from_events(_parse_clause(c) for c in clauses)

    @classmethod
    def single_crash(
        cls, server: str, at: float, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """Crash one server, optionally recovering it later."""
        events = [FaultEvent(at=at, kind="crash", target=server)]
        if recover_at is not None:
            if recover_at <= at:
                raise FaultSpecError(
                    f"recover_at ({recover_at!r}) must be after at ({at!r})"
                )
            events.append(FaultEvent(at=recover_at, kind="recover", target=server))
        return cls.from_events(events)

    @classmethod
    def random(
        cls,
        rng,
        servers: Sequence[str],
        duration: float,
        crashes: int = 1,
        mean_outage: Optional[float] = None,
    ) -> "FaultPlan":
        """Seeded random crash/recover schedule over ``servers``.

        Crash times fall in the first 60% of ``duration``; outages are
        exponentially distributed around ``mean_outage`` (default a
        quarter of the duration) and always end before ``duration``.
        """
        if not servers:
            raise FaultSpecError("random plan needs at least one server")
        if duration <= 0:
            raise FaultSpecError(f"duration must be > 0, got {duration!r}")
        mean = mean_outage if mean_outage is not None else duration / 4.0
        events: List[FaultEvent] = []
        for _ in range(int(crashes)):
            server = servers[int(rng.integers(len(servers)))]
            at = float(rng.uniform(0.05, 0.6)) * duration
            outage = max(float(rng.exponential(mean)), 1e-3)
            recover_at = min(at + outage, duration * 0.95)
            events.append(FaultEvent(at=at, kind="crash", target=server))
            events.append(FaultEvent(at=recover_at, kind="recover", target=server))
        return cls.from_events(events)

    def spec(self) -> str:
        """The whole plan in chaos-spec syntax."""
        return ";".join(event.spec() for event in self.events)

    def targets(self) -> Tuple[str, ...]:
        """Distinct nodes named anywhere in the plan (sorted)."""
        names = set()
        for event in self.events:
            names.add(event.target)
            if event.peer:
                names.add(event.peer)
        return tuple(sorted(names))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)
