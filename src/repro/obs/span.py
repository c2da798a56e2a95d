"""Deterministic spans on the simulation clock.

A :class:`Span` is one timed interval of a request's (or the system's)
life: queued, an attempt, a fence wait, one fan-out RPC, one CPU or
disk busy interval.  Spans form a tree via ``parent`` span ids and
carry attributes (tenant, file, kernel, bytes...) plus zero-duration
*instant* events (a cache verdict, a fault, a hedge firing).

The :class:`Tracer` is the collector.  Two properties are load-bearing:

* **Zero-cost when absent.**  Every instrumentation site reads
  ``monitors.tracer`` — the falsy :data:`NULL_TRACER` by default — and
  does nothing else.  No simulation events, processes, or timeouts are
  ever created for tracing, so the DES event stream (ids, ordering,
  RNG draws) is bit-identical with the subsystem compiled out.
* **Non-perturbing when present.**  Recording a span only reads the
  clock and appends to Python lists.  Ending a span at a *future*
  completion is done by appending a plain callback to the pending
  simulation event's callback list (:meth:`Tracer.end_on`), which fires
  inside the normal ``env.step()`` at the exact completion timestamp —
  again, no new events.  Traced and untraced runs therefore settle
  every request at identical simulated times with identical digests.

The tracer is clock-agnostic: it is constructed unbound and later
:meth:`bound <Tracer.bind>` to ``env.now`` by whoever owns the
environment (the serving system), so benches can hand a fresh tracer
to a cell before the platform exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Interval",
    "merge_intervals",
    "intervals_total",
    "rpc_reply_bytes",
    "rpc_status",
]

Interval = Tuple[float, float]


class SpanEvent:
    """A zero-duration mark inside (or outside) a span."""

    __slots__ = ("time", "name", "attrs")

    def __init__(self, time: float, name: str, attrs: Optional[dict] = None):
        self.time = time
        self.name = name
        self.attrs = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SpanEvent {self.name!r} @ {self.time:g}>"


class Span:
    """One timed interval; a node of the trace tree."""

    __slots__ = (
        "sid",
        "parent",
        "name",
        "cat",
        "track",
        "start",
        "end",
        "attrs",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        cat: str = "span",
        track=None,
        parent: Optional[int] = None,
        end: Optional[float] = None,
        attrs: Optional[dict] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        #: Display lane: a request id for request-scoped spans, or a
        #: system lane name ("faults", "autoscale", "serve", or the
        #: node whose CPU / disk a device span occupies).
        self.track = track
        self.start = start
        self.end = end
        self.attrs = attrs or {}
        self.events: List[SpanEvent] = []
        self._tracer = tracer

    def __bool__(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def interval(self) -> Interval:
        return (self.start, self.end if self.end is not None else self.start)

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record an instant event at the current clock, inside this span."""
        now = self._tracer.now() if self._tracer is not None else self.start
        self.events.append(SpanEvent(now, name, attrs))

    def finish(self, **attrs) -> "Span":
        """End the span at the current clock (first finish wins).

        A span whose parent already ended earlier is marked
        ``detached``: work the parent no longer waits for (an abandoned
        hedge read, a superseded RPC) legitimately outlives the logical
        operation that spawned it, and the validator permits exactly
        these escapes.
        """
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.end = (
                self._tracer.now() if self._tracer is not None else self.start
            )
            if self._tracer is not None and self.parent is not None:
                parent = self._tracer.span(self.parent)
                if (
                    parent is not None
                    and parent.end is not None
                    and self.end > parent.end
                ):
                    self.attrs.setdefault("detached", True)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end:g}" if self.end is not None else "..."
        return f"<Span #{self.sid} {self.cat}:{self.name!r} [{self.start:g}, {end})>"


class NullSpan:
    """Falsy no-op stand-in so hot paths need no ``if`` per attribute."""

    __slots__ = ()

    sid = -1
    parent = None
    name = ""
    cat = ""
    track = None
    start = 0.0
    end = 0.0
    attrs: dict = {}
    events: list = []
    duration = 0.0
    interval = (0.0, 0.0)

    def __bool__(self) -> bool:
        return False

    def annotate(self, **attrs) -> "NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        return None

    def finish(self, **attrs) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans and instants against an externally owned clock.

    ``sample`` (a fraction in ``(0, 1]``, e.g. ``1/8``) keeps only every
    Nth *request* tree, chosen deterministically by request id — request
    ``r`` is traced iff ``r % round(1/sample) == 0`` — so a sampled
    trace of a run is a strict subset of the full trace of the same run
    and two sampled runs from the same seed pick identical requests.
    Sampling drops spans, never simulation events: a sampled run's
    summary is still bit-identical to the untraced run.  System-lane
    spans and instants (faults, autoscale, device busy intervals) are
    always kept.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sample: float = 1.0,
    ):
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample!r}")
        self._clock = clock
        #: Trace every Nth request (1 = every request).
        self.sample_every = max(1, round(1.0 / sample))
        self._next_sid = 0
        self._by_sid: Dict[int, Span] = {}
        self.spans: List[Span] = []
        self.instants: List[SpanEvent] = []
        #: Extra lane hint per instant (parallel to :attr:`instants`).
        self._instant_tracks: List[object] = []
        #: req_id -> root span, the per-request registry (sampled only).
        self.requests: Dict[int, Span] = {}

    def sampled(self, req_id: int) -> bool:
        """Whether this request id is traced under the sampling rate."""
        return req_id % self.sample_every == 0

    def __bool__(self) -> bool:
        return True

    # -- clock ---------------------------------------------------------------
    def bind(self, clock: Callable[[], float]) -> "Tracer":
        """Attach the simulation clock (callable returning ``env.now``)."""
        self._clock = clock
        return self

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- span lifecycle --------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "span",
        track=None,
        parent=None,
        at: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Open a span starting now (or at an explicit time).

        A :data:`NULL_SPAN` parent means the parent tree was sampled
        out: the child is dropped too (sampling is inherited), so an
        unsampled request contributes no spans at all.
        """
        if isinstance(parent, Span):
            parent_sid = parent.sid
            if track is None:
                track = parent.track
        elif isinstance(parent, NullSpan):
            return NULL_SPAN
        else:
            parent_sid = parent
        sid = self._next_sid
        self._next_sid += 1
        span = Span(
            sid,
            name,
            self.now() if at is None else at,
            cat=cat,
            track=track,
            parent=parent_sid,
            attrs=attrs,
            tracer=self,
        )
        self.spans.append(span)
        self._by_sid[sid] = span
        return span

    def span(self, sid: int) -> Optional[Span]:
        """The span with this id, or ``None``."""
        return self._by_sid.get(sid)

    def instant(self, name: str, track=None, **attrs) -> None:
        """A standalone instant event (faults, resizes, rejections)."""
        self.instants.append(SpanEvent(self.now(), name, attrs))
        self._instant_tracks.append(track)

    def end_on(self, span: Span, event, **attrs) -> None:
        """End ``span`` exactly when the pending simulation ``event``
        completes, by appending a plain Python callback to it.

        The callback runs inside the normal ``env.step()`` for that
        event — tracing never schedules anything.  If the event has
        already been processed (``callbacks is None``) the span ends
        now.  ``attrs`` may map attribute names to callables taking the
        completed event (e.g. reply size extractors); plain values pass
        through.
        """
        callbacks = getattr(event, "callbacks", None)
        if callbacks is None:
            self._finish_with(span, event, attrs)
            return

        def _close(ev, _span=span, _attrs=attrs):
            self._finish_with(_span, ev, _attrs)

        callbacks.append(_close)

    def _finish_with(self, span: Span, event, attrs: dict) -> None:
        resolved = {}
        for key, value in attrs.items():
            try:
                resolved[key] = value(event) if callable(value) else value
            except Exception:  # noqa: BLE001 - attrs must never break a run
                resolved[key] = None
        span.finish(**resolved)

    # -- per-request registry --------------------------------------------------
    def request_begin(self, req, at: Optional[float] = None):
        """Open (and register) the root span of an admitted request.

        Returns :data:`NULL_SPAN` (registering nothing) for requests the
        sampling rate drops; every child span guarded by
        :meth:`request_span` then collapses to :data:`NULL_SPAN` too.
        """
        if not self.sampled(req.req_id):
            return NULL_SPAN
        root = self.begin(
            "request",
            cat="request",
            track=req.req_id,
            at=req.arrival if at is None else at,
            tenant=req.tenant,
            file=req.file,
            kernel=req.operator,
            deadline=req.deadline,
        )
        self.requests[req.req_id] = root
        return root

    def request_span(self, req_id: int):
        """The registered root span, or :data:`NULL_SPAN` when unknown."""
        return self.requests.get(req_id, NULL_SPAN)

    def request_end(self, req_id: int, outcome: str) -> None:
        root = self.requests.get(req_id)
        if root is not None:
            root.finish(outcome=outcome)

    # -- reporting -------------------------------------------------------------
    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]

    def children_index(self) -> Dict[int, List[Span]]:
        """parent sid -> child spans, insertion-ordered."""
        index: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracer spans={len(self.spans)} instants={len(self.instants)}"
            f" requests={len(self.requests)}>"
        )


class NullTracer:
    """Falsy tracer: every site guards with ``if tracer:`` and pays one
    attribute read when tracing is off."""

    enabled = False

    def __bool__(self) -> bool:
        return False

    def bind(self, clock) -> "NullTracer":
        return self

    def now(self) -> float:
        return 0.0

    def begin(self, name, cat="span", track=None, parent=None, at=None, **attrs):
        return NULL_SPAN

    def instant(self, name, track=None, **attrs) -> None:
        return None

    def end_on(self, span, event, **attrs) -> None:
        return None

    def request_begin(self, req, at=None):
        return NULL_SPAN

    def request_span(self, req_id):
        return NULL_SPAN

    def request_end(self, req_id, outcome) -> None:
        return None


NULL_TRACER = NullTracer()


# -- completed-event attribute extractors (for Tracer.end_on) -----------------
def rpc_status(event) -> str:
    """"ok" when the completed call succeeded, "error" otherwise."""
    return "ok" if getattr(event, "_ok", False) else "error"


def rpc_reply_bytes(event):
    """Reply message size of a completed call, when one exists."""
    if getattr(event, "_ok", False):
        return getattr(getattr(event, "_value", None), "size", None)
    return None


# -- interval algebra (shared with the timeline projection) -------------------
def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted union of ``[a, b)`` intervals with overlaps coalesced."""
    out: List[Interval] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def intervals_total(intervals: Iterable[Interval]) -> float:
    """Total measure of an interval set (overlaps merged)."""
    return sum(b - a for a, b in merge_intervals(intervals))
