"""Max-min fair-share fluid network model.

Every transfer is a *flow* traversing two directed link resources: the
sender NIC's transmit side and the receiver NIC's receive side.  At any
instant each flow progresses at the max-min fair rate determined by
progressive filling over the links it crosses — the standard fluid
approximation used by network simulators (SimGrid et al.).  This avoids
the head-of-line blocking artefacts of hold-the-pipe models: twelve
clients each reading from twelve servers saturate all twenty-four NICs
concurrently, exactly like the real bipartite traffic pattern.

Rates are recomputed whenever a flow starts or finishes; between
recomputations every flow drains linearly, so the scheduler only needs
one timer for the earliest completion.  Settling is deferred to the
engine's clock-advance hook: rates are only consumed once simulated
time moves, so a same-instant burst of starts and finishes pays for a
single progressive-filling pass.

Flow and link collections are insertion-ordered dicts, never sets:
progressive filling breaks bottleneck ties by iteration order and
accumulates float rates in it, and same-instant completions fire their
events in it.  Identity-hashed sets would make all three follow object
memory addresses — two same-seed runs would drift apart in the last
ulps and in event order, which the serving benches (bit-identical
replay) would catch.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError, SimulationError
from ..sim import Environment, Event

_EPS = 1e-6  # byte tolerance when declaring a flow drained


class FluidLink:
    """One direction of one NIC (or any capacity-bound pipe).

    ``residual``/``ncount``/``in_order`` are progressive-filling scratch
    owned by :meth:`FluidScheduler._recompute`; ``in_order`` marks
    membership in the scheduler's cached fill-order list.
    """

    __slots__ = ("name", "capacity", "flows", "residual", "ncount", "in_order")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise NetworkError(f"link {name!r} capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        self.flows: Dict["FluidFlow", None] = {}
        self.residual = 0.0
        self.ncount = 0
        self.in_order = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FluidLink {self.name} cap={self.capacity:.3g} flows={len(self.flows)}>"


class FluidFlow:
    """A transfer in progress."""

    __slots__ = (
        "size",
        "remaining",
        "rate",
        "links",
        "event",
        "started_at",
        "done_below",
        "epoch",
    )

    def __init__(self, size: float, links: Tuple[FluidLink, ...], event: Event, now: float):
        size = float(size)
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.links = links
        self.event = event
        self.started_at = now
        # Drained threshold, hoisted out of the controller's per-wake
        # scan; same float product as `_EPS * max(1.0, size)`.
        self.done_below = _EPS * (size if size > 1.0 else 1.0)
        # Assigned-this-round stamp for _recompute (scratch).
        self.epoch = 0


class FluidScheduler:
    """Shares link capacity among concurrent flows, max-min fairly."""

    def __init__(self, env: Environment):
        self.env = env
        self._links: Dict[str, FluidLink] = {}
        self._flows: Dict[FluidFlow, None] = {}
        self._last_advance = env.now
        #: Live completion timer (a Timeout whose callback is
        #: :meth:`_on_timer`); replanted by every settle.
        self._timer: Optional[Event] = None
        self._epoch = 0
        self._dirty = False
        # Settle lazily, once per distinct timestamp: the engine calls
        # _on_advance just before the clock moves (or idles out)
        # whenever the armed flag is up, so a burst of same-instant
        # starts/finishes pays for one progressive-filling pass.
        # Registered weakly: the hook list must not own the scheduler
        # (an env <-> scheduler cycle would pin the whole event heap).
        me = weakref.ref(self)
        env.add_advance_hook(lambda: me() and me()._on_advance())
        # Cached fill order: links in first-seen order over the live
        # flows.  Flow *starts* append any new links at the end (the
        # order a rebuild would produce, since new flows sit at the end
        # of the flow dict); any flow *removal* marks it stale and the
        # next recompute rebuilds it from scratch.
        self._order: List[FluidLink] = []
        self._order_stale = False
        # Earliest time-to-completion at current rates, maintained by
        # _recompute as rates are assigned (consumed by the controller).
        self._next_delay = float("inf")

    # -- link registry ------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> FluidLink:
        if name in self._links:
            raise NetworkError(f"fluid link {name!r} already exists")
        link = FluidLink(name, capacity)
        self._links[name] = link
        return link

    def link(self, name: str) -> FluidLink:
        try:
            return self._links[name]
        except KeyError:
            raise NetworkError(f"no fluid link named {name!r}") from None

    # -- flow lifecycle --------------------------------------------------------
    def start(self, link_names: Tuple[str, ...], size: float) -> Event:
        """Begin a flow across the named links; the returned event
        succeeds when the last byte has drained."""
        done = self.env.event()
        if size <= 0:
            done.succeed()
            return done
        links = tuple(self._links[n] for n in link_names)
        flow = FluidFlow(size, links, done, self.env.now)
        self._flows[flow] = None
        for link in links:
            link.flows[flow] = None
        if not self._order_stale:
            order = self._order
            for link in links:
                if not link.in_order:
                    link.in_order = True
                    order.append(link)
        # Rates are only consumed once simulated time moves again, so
        # recomputation is deferred to the engine's clock-advance hook.
        self._dirty = True
        self.env._hooks_armed = True
        return done

    # -- fluid mechanics ------------------------------------------------------------
    def _recompute(self) -> None:
        """Progressive filling: repeatedly saturate the tightest link.

        Hot: runs on every flow start/finish with hundreds of live
        flows under load.  Instead of copying every link's flow dict
        per call, it keeps one residual-capacity and one
        unassigned-count per link and skips already-assigned flows via
        an identity set (membership only — hash order never drives
        iteration).  Iteration orders — links in first-flow-touch
        order, flows in `link.flows` insertion order — and the
        per-link subtraction sequence are exactly those of the
        dict-copy formulation, so rates match it bit for bit.

        Draining every flow at its old rate up to ``now`` is fused into
        the assignment loop: every live flow is assigned exactly once
        per fill, so subtracting ``old_rate * dt`` right before the new
        rate lands is the same independent per-flow update a separate
        drain pass would make — callers need not drain first.
        """
        flows_dict = self._flows
        now = self.env.now
        dt = now - self._last_advance
        self._last_advance = now
        epoch = self._epoch = self._epoch + 1
        # Links in first-seen order over flows.  The order is cached
        # across recomputes: starts kept it current by appending; only
        # removals force this rebuild.
        order = self._order
        if self._order_stale:
            for link in order:
                link.in_order = False
            order = self._order = []
            append = order.append
            for flow in flows_dict:
                for link in flow.links:
                    if not link.in_order:
                        link.in_order = True
                        append(link)
            self._order_stale = False
        for link in order:
            link.residual = link.capacity
            link.ncount = len(link.flows)
        total = unassigned = len(flows_dict)
        inf = float("inf")
        best = inf  # earliest completion across assigned rates
        drain = dt > 0.0
        while unassigned:
            bottleneck = None
            share = inf
            for link in order:
                n = link.ncount
                if not n:
                    continue
                s = link.residual / n
                if s < share:
                    share, bottleneck = s, link
            if bottleneck is None:
                raise SimulationError("flows exist but no link carries them")
            positive = share > 0.0
            if bottleneck.ncount == total:
                # One link carries *every* flow (the dominant case when
                # e.g. the NAS server's NIC is the system bottleneck):
                # the whole fill is this single round, nothing was
                # assigned before it, and the epoch stamps are never
                # read again — skip them and the scratch upkeep.
                if drain:
                    for flow in bottleneck.flows:
                        rem = flow.remaining = flow.remaining - flow.rate * dt
                        flow.rate = share
                        if positive:
                            if rem > 0.0:
                                t = rem / share
                                if t < best:
                                    best = t
                            else:
                                best = 0.0
                else:
                    for flow in bottleneck.flows:
                        rem = flow.remaining
                        flow.rate = share
                        if positive:
                            if rem > 0.0:
                                t = rem / share
                                if t < best:
                                    best = t
                            else:
                                best = 0.0
                break
            if bottleneck.ncount == unassigned:
                # Final round: every remaining flow crosses the
                # bottleneck, and the residual/count scratch is never
                # read again, so skip its upkeep.  This is the common
                # case when one link (e.g. the NAS server's NIC) carries
                # the whole load — the fill completes in one round.
                for flow in bottleneck.flows:
                    if flow.epoch != epoch:
                        flow.epoch = epoch
                        rem = flow.remaining
                        if drain:
                            rem = flow.remaining = rem - flow.rate * dt
                        flow.rate = share
                        if positive:
                            t = rem / share if rem > 0.0 else 0.0
                            if t < best:
                                best = t
                break
            for flow in bottleneck.flows:
                if flow.epoch == epoch:
                    continue
                flow.epoch = epoch
                rem = flow.remaining
                if drain:
                    rem = flow.remaining = rem - flow.rate * dt
                flow.rate = share
                if positive:
                    t = rem / share if rem > 0.0 else 0.0
                    if t < best:
                        best = t
                unassigned -= 1
                for link in flow.links:
                    link.residual -= share
                    link.ncount -= 1
        self._next_delay = best

    def _next_completion(self) -> float:
        """Seconds until the earliest flow drains at current rates."""
        best = float("inf")
        for flow in self._flows:
            rate = flow.rate
            if rate > 0:
                rem = flow.remaining
                t = rem / rate if rem > 0.0 else 0.0
                if t < best:
                    best = t
        return best

    # -- controller ---------------------------------------------------------------------
    def _on_advance(self) -> None:
        """Engine clock-advance hook: settle rates if the flow set changed."""
        if not self._dirty:
            return
        self._dirty = False
        if not self._flows:
            timer = self._timer
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        self._settle()

    def _settle(self) -> None:
        """Recompute rates and replant the earliest-completion timer."""
        self._recompute()
        delay = self._next_delay  # maintained by _recompute
        if delay == float("inf"):
            raise SimulationError("active flows with zero aggregate rate")
        timer = self._timer
        if timer is not None:
            timer.cancel()  # lazy: heap entry stays, dispatch is a no-op
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, _event: Event) -> None:
        """Completion timer fired: drain, complete finished flows.

        The drain (``remaining -= rate * dt`` per flow) and the finished
        scan are one fused pass.
        """
        self._timer = None
        now = self.env.now
        dt = now - self._last_advance
        self._last_advance = now
        finished = []
        if dt > 0.0:
            add = finished.append
            for flow in self._flows:
                rem = flow.remaining = flow.remaining - flow.rate * dt
                if rem <= flow.done_below:
                    add(flow)
        else:
            finished = [f for f in self._flows if f.remaining <= f.done_below]
        if finished:
            flows = self._flows
            for flow in finished:
                flows.pop(flow, None)
                for link in flow.links:
                    link.flows.pop(flow, None)
                flow.event.succeed()
            self._dirty = True
            self._order_stale = True
            self.env._hooks_armed = True
        elif self._flows:
            # Epsilon shortfall (or a timer that outlived a same-instant
            # settle): replant at the true earliest completion.
            delay = self._next_completion()
            if delay == float("inf"):
                raise SimulationError("active flows with zero aggregate rate")
            timer = self.env.timeout(delay)
            timer.callbacks.append(self._on_timer)
            self._timer = timer

    # -- introspection (tests, monitors) ---------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def link_utilization(self, name: str) -> float:
        """Fraction of a link's capacity currently allocated."""
        link = self.link(name)
        if self._dirty and self._flows:
            # Settle deferred rates before reading them (_recompute
            # drains up to now itself; the timer is replanted too, so
            # the clock-advance hook's later no-op is harmless).
            self._dirty = False
            self._settle()
        used = sum(f.rate for f in link.flows)
        return used / link.capacity if link.capacity else 0.0
