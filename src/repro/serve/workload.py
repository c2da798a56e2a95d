"""Open- and closed-loop multi-tenant workload generation.

A serving system is evaluated under *offered* load: arrivals keep
coming at their configured rate whether or not earlier requests have
finished (open loop), which is what exposes queueing collapse — a
closed loop would politely slow down with the system and hide it.
Both loops exist here because both behaviours are worth measuring:
:class:`OpenLoopWorkload` models the internet (demand does not care
that you are slow), :class:`ClosedLoopWorkload` models a bounded
population of interactive clients (each waits for its response, thinks,
and asks again), which is what batch pipelines and dashboards look
like.  A scenario can mix the two tenant by tenant.

Each tenant draws Poisson arrivals and per-request (kernel, file)
choices from its own named substream of the cluster's
:class:`~repro.sim.rand.RandomStreams` — closed-loop clients each own a
*per-client* substream — so adding a tenant (or a client) never
perturbs another's draws and any run is exactly reproducible from the
root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ServeError
from ..hw.cluster import Cluster

#: Substream prefix for all serving-layer randomness.
STREAM_PREFIX = "serve.arrivals."
#: Substream prefix for closed-loop client randomness (per client).
CLOSED_STREAM_PREFIX = "serve.closed."
#: Closed-loop request ids start here so they can never collide with
#: the open-loop generator's counter within one run.
CLOSED_ID_BASE = 10_000_000


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving system.

    ``rate`` is the offered arrival rate in requests per simulated
    second at load multiplier 1.0; ``weight`` is the fair-share weight
    the scheduler grants the tenant's queue.

    ``mode`` selects the arrival model.  ``"open"`` (the default) is
    the Poisson open loop driven by ``rate``.  ``"closed"`` instead
    runs ``population`` concurrent clients, each cycling think ->
    submit -> wait-for-settlement: ``think_time`` is the mean of the
    exponential think gap (must be positive — a zero think time would
    spin without advancing the clock on rejection) and ``affinity`` is
    the probability a client re-reads its current session file instead
    of drawing a fresh one (session/file affinity; 0 = uniform every
    request, 1 = one file per client for the whole run).  ``rate`` is
    ignored in closed mode — throughput is an *outcome* of a closed
    loop, not an input.
    """

    name: str
    #: Open mode only; closed tenants may omit it (throughput is an
    #: outcome of a closed loop, not an input).
    rate: float = 0.0
    weight: float = 1.0
    #: Operators this tenant issues, chosen uniformly per request.
    kernels: Tuple[str, ...] = ("gaussian",)
    #: Input files this tenant reads, chosen uniformly per request.
    files: Tuple[str, ...] = ()
    #: Pipeline length declared on each request (amortisation hint).
    pipeline_length: int = 1
    #: Arrival model: "open" (Poisson, rate-driven) or "closed"
    #: (bounded population with think time).
    mode: str = "open"
    #: Closed mode: number of concurrent clients.
    population: int = 0
    #: Closed mode: mean exponential think time between a settlement
    #: (or rejection) and the client's next request, seconds.
    think_time: float = 0.0
    #: Closed mode: probability of staying on the session file.
    affinity: float = 0.0

    def __post_init__(self):
        if self.mode not in ("open", "closed"):
            raise ServeError(
                f"tenant {self.name!r} mode must be 'open' or 'closed',"
                f" got {self.mode!r}"
            )
        if self.mode == "open" and self.rate <= 0:
            raise ServeError(f"tenant {self.name!r} needs a positive rate")
        if self.mode == "closed":
            if self.population < 1:
                raise ServeError(
                    f"closed tenant {self.name!r} needs population >= 1"
                )
            if self.think_time <= 0:
                raise ServeError(
                    f"closed tenant {self.name!r} needs a positive think_time"
                )
            if not 0.0 <= self.affinity <= 1.0:
                raise ServeError(
                    f"closed tenant {self.name!r} needs affinity in [0, 1],"
                    f" got {self.affinity!r}"
                )
        if self.weight <= 0:
            raise ServeError(f"tenant {self.name!r} needs a positive weight")
        if not self.kernels:
            raise ServeError(f"tenant {self.name!r} declares no kernels")


@dataclass
class ServeRequest:
    """One in-flight request as tracked by the serving layer."""

    req_id: int
    tenant: str
    operator: str
    file: str
    #: Simulated time the request arrived at the admission controller.
    arrival: float
    #: Absolute simulated deadline; queue time counts against it.
    deadline: float
    #: Scheduler cost (bytes of input): the DWRR deficit currency.
    cost: int
    pipeline_length: int = 1
    attempts: int = 0
    #: Filled in as the request moves through the system.
    started: Optional[float] = None
    finished: Optional[float] = None
    extra: dict = field(default_factory=dict)

    @property
    def output(self) -> str:
        """Unique output file name (no collisions across requests)."""
        return f"{self.file}.out.{self.req_id}"

    def latency(self) -> float:
        if self.finished is None:
            raise ServeError(f"request {self.req_id} has not finished")
        return self.finished - self.arrival


class OpenLoopWorkload:
    """Poisson arrival processes, one per tenant, feeding a sink.

    ``sink`` is anything with a ``submit(request) -> bool`` method (the
    admission controller); the generator does not wait for completions.

    ``ramp`` optionally shapes the offered load over time as a
    piecewise-constant multiplier: ``((t0, m0), (t1, m1), ...)`` applies
    multiplier ``m_i`` from simulated time ``t_i`` until the next phase
    starts (1.0 before ``t0``).  The multiplier in force when a gap is
    drawn governs that gap — a phase change takes effect from the next
    arrival.  With ``ramp=None`` the arrival draws are identical to a
    build without the ramp feature.
    """

    def __init__(
        self,
        cluster: Cluster,
        tenants: Tuple[TenantSpec, ...],
        duration: float,
        deadline: float,
        load: float = 1.0,
        ramp: Optional[Tuple[Tuple[float, float], ...]] = None,
    ):
        if not tenants:
            raise ServeError("workload needs at least one tenant")
        if len({t.name for t in tenants}) != len(tenants):
            raise ServeError("tenant names must be unique")
        closed = [t.name for t in tenants if t.mode != "open"]
        if closed:
            raise ServeError(
                f"OpenLoopWorkload got closed-mode tenant(s) {closed};"
                " use ClosedLoopWorkload for them"
            )
        if duration <= 0 or deadline <= 0 or load <= 0:
            raise ServeError("duration, deadline and load must be positive")
        if ramp is not None:
            times = [t for t, _ in ramp]
            if times != sorted(times):
                raise ServeError("ramp phases must be in ascending time order")
            if any(m <= 0 for _, m in ramp):
                raise ServeError("ramp multipliers must be positive")
        self.cluster = cluster
        self.tenants = tuple(tenants)
        self.duration = float(duration)
        self.deadline = float(deadline)
        self.load = float(load)
        self.ramp = tuple((float(t), float(m)) for t, m in ramp) if ramp else None
        self._next_id = 0
        #: Requests handed to the sink, in submission order.
        self.generated = 0

    def multiplier(self, now: float) -> float:
        """The ramp multiplier in force at simulated time ``now``."""
        if self.ramp is None:
            return 1.0
        current = 1.0
        for start, m in self.ramp:
            if now >= start:
                current = m
            else:
                break
        return current

    def start(self, sink) -> list:
        """Spawn one arrival process per tenant; returns the processes."""
        env = self.cluster.env
        return [
            env.process(self._arrivals(t, sink), name=f"serve-arrivals:{t.name}")
            for t in self.tenants
        ]

    def _schedule(self, tenant: TenantSpec, start_at: float) -> list:
        """Pre-draw the tenant's whole arrival schedule in one tight pass.

        Returns ``[(gap, arrival_time, operator, file), ...]``.  The rng
        calls are made in *exactly* the order the old in-loop form made
        them — gap, kernel index, file index, per arrival, with the
        final over-duration gap drawn but unused — so the substream
        consumption (and therefore every downstream draw) is
        bit-identical.  True array vectorisation is off the table here:
        the gap/kernel/file draws interleave on one substream, and
        batching any of them would reorder the underlying bit stream.
        Hoisting the draws out of the event loop still pays — the
        per-arrival process body shrinks to a timeout and a submit.

        Arrival times are accumulated ``t = t + gap`` left-to-right,
        the same fold the clock performs when each timeout is
        scheduled, so ``arrival_time`` equals ``env.now`` at submit to
        the last bit.
        """
        rng = self.cluster.rand.stream(f"{STREAM_PREFIX}{tenant.name}")
        rate = tenant.rate * self.load
        duration = self.duration
        kernels = tenant.kernels
        files = tenant.files
        n_kernels = len(kernels)
        n_files = len(files)
        exponential = rng.exponential
        integers = rng.integers
        multiplier = self.multiplier
        flat = self.ramp is None
        scale = 1.0 / rate
        out: list = []
        append = out.append
        t = start_at
        while True:
            gap = exponential(scale if flat else 1.0 / (rate * multiplier(t)))
            if t + gap >= duration:
                return out
            t = t + gap
            operator = kernels[int(integers(n_kernels))]
            if not files:
                raise ServeError(f"tenant {tenant.name!r} has no files to read")
            file = files[int(integers(n_files))]
            append((gap, t, operator, file))

    def _arrivals(self, tenant: TenantSpec, sink):
        env = self.cluster.env
        timeout = env.timeout
        submit = sink.submit
        name = tenant.name
        deadline = self.deadline
        pipeline_length = tenant.pipeline_length
        for gap, arrival, operator, file in self._schedule(tenant, env.now):
            yield timeout(gap)
            self._next_id += 1
            self.generated += 1
            submit(
                ServeRequest(
                    req_id=self._next_id,
                    tenant=name,
                    operator=operator,
                    file=file,
                    arrival=arrival,
                    deadline=arrival + deadline,
                    cost=0,  # admission fills in the file size
                    pipeline_length=pipeline_length,
                )
            )


class ClosedLoopWorkload:
    """A bounded population of think-submit-wait clients per tenant.

    Each client is one simulation process cycling::

        think (exponential, mean tenant.think_time)
        -> pick a file (stay on the session file with prob. affinity)
        -> submit; if admitted, wait until the request settles

    The wait is the defining closed-loop property: an overloaded system
    slows its own offered load down, so queue depth is bounded by the
    population.  Settlement is signalled through a per-request
    ``extra["settled"]`` event the :class:`~repro.serve.slo.SLOBoard`
    triggers with the terminal outcome — only requests that carry the
    event pay for it, so open-loop runs are event-for-event unchanged
    by this class existing.  A rejected submission costs the client a
    fresh think gap (bounded retry pressure, no zero-time spin).

    Each client draws from its own substream
    (``serve.closed.<tenant>.<k>``), making the draw sequence
    independent of how client processes interleave; request ids come
    from a counter starting at :data:`CLOSED_ID_BASE` so they never
    collide with open-loop ids in a mixed run.  ``sink`` is anything
    with ``submit(request) -> bool``, as for the open loop.
    """

    def __init__(
        self,
        cluster: Cluster,
        tenants: Tuple[TenantSpec, ...],
        duration: float,
        deadline: float,
    ):
        if not tenants:
            raise ServeError("workload needs at least one tenant")
        if len({t.name for t in tenants}) != len(tenants):
            raise ServeError("tenant names must be unique")
        opened = [t.name for t in tenants if t.mode != "closed"]
        if opened:
            raise ServeError(
                f"ClosedLoopWorkload got open-mode tenant(s) {opened};"
                " use OpenLoopWorkload for them"
            )
        if duration <= 0 or deadline <= 0:
            raise ServeError("duration and deadline must be positive")
        for t in tenants:
            if not t.files:
                raise ServeError(f"tenant {t.name!r} has no files to read")
        self.cluster = cluster
        self.tenants = tuple(tenants)
        self.duration = float(duration)
        self.deadline = float(deadline)
        self._next_id = CLOSED_ID_BASE
        #: Requests handed to the sink, in submission order.
        self.generated = 0

    @property
    def population(self) -> int:
        return sum(t.population for t in self.tenants)

    def start(self, sink) -> list:
        """Spawn one process per client; returns the processes."""
        env = self.cluster.env
        procs = []
        for tenant in self.tenants:
            for k in range(tenant.population):
                rng = self.cluster.rand.stream(
                    f"{CLOSED_STREAM_PREFIX}{tenant.name}.{k}"
                )
                procs.append(
                    env.process(
                        self._client(tenant, rng, sink),
                        name=f"serve-client:{tenant.name}.{k}",
                    )
                )
        return procs

    def _client(self, tenant: TenantSpec, rng, sink):
        env = self.cluster.env
        session = tenant.files[int(rng.integers(len(tenant.files)))]
        while True:
            think = rng.exponential(tenant.think_time)
            if env.now + think >= self.duration:
                return
            yield env.timeout(think)
            if rng.random() >= tenant.affinity:
                session = tenant.files[int(rng.integers(len(tenant.files)))]
            operator = tenant.kernels[int(rng.integers(len(tenant.kernels)))]
            self._next_id += 1
            self.generated += 1
            settled = env.event()
            req = ServeRequest(
                req_id=self._next_id,
                tenant=tenant.name,
                operator=operator,
                file=session,
                arrival=env.now,
                deadline=env.now + self.deadline,
                cost=0,  # admission fills in the file size
                pipeline_length=tenant.pipeline_length,
                extra={"settled": settled},
            )
            if sink.submit(req):
                yield settled


def build_workloads(
    host,
    tenants: Tuple[TenantSpec, ...],
    duration: float,
    deadline: float,
    load: float = 1.0,
    ramp: Optional[Tuple[Tuple[float, float], ...]] = None,
) -> tuple:
    """The workload generators ``tenants`` ask for, open-loop first.

    Tenants choose their arrival model individually; a run may mix
    open-loop (rate-driven) and closed-loop (population-driven) tenants,
    each workload driving the same admission sink.  ``host`` supplies
    the clock and the named random streams (a ``Cluster``, or the
    fleet's own stream host).
    """
    open_tenants = tuple(t for t in tenants if t.mode == "open")
    closed_tenants = tuple(t for t in tenants if t.mode == "closed")
    workloads = []
    if open_tenants:
        workloads.append(
            OpenLoopWorkload(host, open_tenants, duration, deadline, load, ramp)
        )
    if closed_tenants:
        workloads.append(
            ClosedLoopWorkload(host, closed_tenants, duration, deadline)
        )
    return tuple(workloads)
