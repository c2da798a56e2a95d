"""SLO accounting for the serving layer.

Every request admitted by the controller must end in *exactly one* of
four terminal outcomes — the conservation law the property tests pin:

* ``completed`` — finished within its deadline,
* ``late``      — finished, but after the deadline (SLO violation),
* ``expired``   — dropped at dequeue because its deadline had already
  passed while it sat in the tenant queue,
* ``failed``    — the executor raised on every retry attempt.

Requests the admission controller turns away (``rejected``) were never
admitted and sit outside the conservation set.  The board enforces the
exactly-once rule itself: double-finishing a request or finishing an
unadmitted request raises, so a scheduler bug cannot silently cook the
statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ServeError
from ..metrics.stats import LatencySummary, latency_summary, percentile
from ..sim.monitor import MonitorHub
from .workload import ServeRequest

#: Terminal outcomes of an admitted request.
COMPLETED = "completed"
LATE = "late"
EXPIRED = "expired"
FAILED = "failed"
OUTCOMES = (COMPLETED, LATE, EXPIRED, FAILED)


@dataclass
class TenantStats:
    """Mutable per-tenant tallies accumulated during a run."""

    tenant: str
    admitted: int = 0
    rejected: int = 0
    outcomes: Dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in OUTCOMES}
    )
    retries: int = 0

    @property
    def finished(self) -> int:
        return self.outcomes[COMPLETED] + self.outcomes[LATE]

    @property
    def settled(self) -> int:
        return sum(self.outcomes.values())

    @property
    def availability(self) -> float:
        """Fraction of settled requests that finished (possibly late).

        The serving-side availability metric: expired and failed
        requests are the ones the tenant experienced as unavailability.
        1.0 when nothing has settled yet.
        """
        settled = self.settled
        return self.finished / settled if settled else 1.0


class SLOWindow:
    """Sliding window of finish-time-stamped latencies.

    The autoscale controller acts on *recent* tail latency, not the
    run-cumulative percentiles the summary reports: a breach ten
    simulated minutes ago must not trigger a scale-up now.  Samples are
    ``(finish_time, latency)`` pairs; finish times arrive monotonically
    non-decreasing (settlement happens at the simulated now), so pruning
    is a popleft scan.

    Window math the controller triggers on, pinned by unit tests:

    * an empty window reports ``count == 0`` and ``p99 == 0.0`` — the
      caller must treat that as *no signal*, never as a healthy 0 ms;
    * a single sample IS the p99 (nearest-rank percentiles);
    * only samples with ``finish > now - horizon`` are visible, so a
      burst of slow finishes ages out ``horizon`` seconds later.
    """

    def __init__(self, horizon: float):
        if horizon <= 0:
            raise ServeError(f"window horizon must be positive, got {horizon!r}")
        self.horizon = float(horizon)
        self._samples: Deque[Tuple[float, float]] = deque()

    def record(self, finish: float, latency: float) -> None:
        if self._samples and finish < self._samples[-1][0]:
            raise ServeError(
                f"window samples must arrive in time order"
                f" ({finish!r} after {self._samples[-1][0]!r})"
            )
        self._samples.append((finish, latency))

    def _prune(self, now: float) -> None:
        cutoff = now - self.horizon
        while self._samples and self._samples[0][0] <= cutoff:
            self._samples.popleft()

    def latencies(self, now: float) -> List[float]:
        """Latencies of requests that finished within the horizon."""
        self._prune(now)
        return [lat for _, lat in self._samples]

    def count(self, now: float) -> int:
        self._prune(now)
        return len(self._samples)

    def p99(self, now: float) -> float:
        """Nearest-rank p99 over the window; 0.0 when it is empty."""
        return percentile(sorted(self.latencies(now)), 99)

    def summary(self, now: float) -> LatencySummary:
        return latency_summary(self.latencies(now))

    def __len__(self) -> int:
        return len(self._samples)


class SLOBoard:
    """Exactly-once outcome ledger + per-tenant latency accounting.

    Outcomes are counted as ``serve.<outcome>`` on the hub, and every
    finished request's latency is observed into the hub's
    ``serve.latency`` and ``serve.latency.<tenant>`` histograms — the
    samples the summary's latency columns are computed from.
    """

    #: Default sliding-window horizon (simulated seconds) for the
    #: controller-facing signal.
    WINDOW_HORIZON = 2.0

    def __init__(
        self,
        monitors: MonitorHub,
        window_horizon: float = WINDOW_HORIZON,
    ):
        self.monitors = monitors
        self.tenants: Dict[str, TenantStats] = {}
        #: Sliding window over finished-request latencies (completed and
        #: late alike): the signal the autoscale controller watches.
        self.window = SLOWindow(window_horizon)
        #: req_id -> terminal outcome; the conservation ledger.
        self._settled: Dict[int, str] = {}
        self._admitted: Dict[int, str] = {}  # req_id -> tenant

    def _stats(self, tenant: str) -> TenantStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantStats(tenant)
        return stats

    def _count(self, name: str) -> None:
        self.monitors.counter(f"serve.{name}").add()

    # -- admission ------------------------------------------------------------
    def admitted(self, req: ServeRequest) -> None:
        if req.req_id in self._admitted:
            raise ServeError(f"request {req.req_id} admitted twice")
        self._admitted[req.req_id] = req.tenant
        self._stats(req.tenant).admitted += 1
        self._count("admitted")

    def rejected(self, req: ServeRequest) -> None:
        if req.req_id in self._admitted:
            raise ServeError(f"request {req.req_id} was already admitted")
        self._stats(req.tenant).rejected += 1
        self._count("rejected")
        if self.monitors.tracer:
            self.monitors.tracer.instant(
                "admission.reject", track="serve", tenant=req.tenant, file=req.file
            )

    def retried(self, req: ServeRequest) -> None:
        self._stats(req.tenant).retries += 1
        self._count("retries")

    # -- settlement ------------------------------------------------------------
    def settle(self, req: ServeRequest, outcome: str) -> None:
        """Record the terminal outcome of an admitted request (once)."""
        if outcome not in OUTCOMES:
            raise ServeError(f"unknown outcome {outcome!r}")
        if req.req_id not in self._admitted:
            raise ServeError(f"request {req.req_id} settled without admission")
        if req.req_id in self._settled:
            raise ServeError(
                f"request {req.req_id} settled twice:"
                f" {self._settled[req.req_id]!r} then {outcome!r}"
            )
        self._settled[req.req_id] = outcome
        stats = self._stats(req.tenant)
        stats.outcomes[outcome] += 1
        if outcome in (COMPLETED, LATE):
            latency = req.latency()
            self.window.record(req.finished, latency)
            monitors = self.monitors
            monitors.histogram("serve.latency").observe(latency)
            monitors.histogram(f"serve.latency.{req.tenant}").observe(latency)
        self._count(outcome)
        if self.monitors.tracer:
            self.monitors.tracer.request_end(req.req_id, outcome)
        # Closed-loop clients park on a per-request event until their
        # request reaches a terminal outcome; requests without the key
        # (all open-loop traffic) pay nothing here.
        done = req.extra.get("settled")
        if done is not None and not done.triggered:
            done.succeed(outcome)

    # -- invariants ------------------------------------------------------------
    @property
    def total_admitted(self) -> int:
        return len(self._admitted)

    @property
    def total_settled(self) -> int:
        return len(self._settled)

    def conservation_ok(self) -> bool:
        """True iff every admitted request has exactly one outcome."""
        return set(self._settled) == set(self._admitted)

    def unsettled(self) -> List[int]:
        return sorted(set(self._admitted) - set(self._settled))

    # -- reporting ------------------------------------------------------------
    def latency(self, tenant: Optional[str] = None) -> LatencySummary:
        """Latency summary of one tenant's finished requests (of every
        tenant's without ``tenant``), read off the hub's histogram."""
        name = "serve.latency" if tenant is None else f"serve.latency.{tenant}"
        hist = self.monitors.histograms.get(name)
        return latency_summary(hist.samples if hist is not None else ())

    def summary(self, elapsed: float) -> Dict[str, dict]:
        """Deterministic per-tenant summary rows (plus an ``_all`` row)."""
        out: Dict[str, dict] = {}
        for name in sorted(self.tenants):
            stats = self.tenants[name]
            lat = self.latency(name)
            out[name] = {
                "admitted": stats.admitted,
                "rejected": stats.rejected,
                "retries": stats.retries,
                "throughput": stats.outcomes[COMPLETED] / elapsed if elapsed else 0.0,
                "availability": stats.availability,
                **dict(stats.outcomes),
                **{f"lat_{k}": v for k, v in lat.row.items()},
            }
        total = self.latency()
        all_settled = sum(s.settled for s in self.tenants.values())
        all_finished = sum(s.finished for s in self.tenants.values())
        out["_all"] = {
            "admitted": self.total_admitted,
            "availability": all_finished / all_settled if all_settled else 1.0,
            "rejected": sum(s.rejected for s in self.tenants.values()),
            "retries": sum(s.retries for s in self.tenants.values()),
            "throughput": (
                sum(s.outcomes[COMPLETED] for s in self.tenants.values()) / elapsed
                if elapsed
                else 0.0
            ),
            **{
                o: sum(s.outcomes[o] for s in self.tenants.values())
                for o in OUTCOMES
            },
            **{f"lat_{k}": v for k, v in total.row.items()},
        }
        return out
