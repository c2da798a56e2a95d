"""CPU model.

A node's CPU is modelled as a single execution engine (capacity-1
resource).  Kernel invocations are data-parallel across the node's
cores, so their duration is ``elements * sec_per_element / cores``;
control-plane work (serving a halo request, RPC dispatch) charges small
fixed costs on the same engine.  Sharing one resource is what produces
the paper's observed NAS overload: a storage server that must serve
neighbours' dependent-data requests delays its own offloaded kernels.
"""

from __future__ import annotations

from ..config import PlatformSpec
from ..errors import SimulationError
from ..sim import Environment, Resource
from ..sim.events import Event, Timeout
from ..sim.monitor import MonitorHub
from ..sim.resources import Request


class CPU:
    """Execution engine of one node."""

    def __init__(
        self,
        env: Environment,
        owner: str,
        spec: PlatformSpec,
        monitors: MonitorHub,
    ):
        if spec.cores <= 0:
            raise SimulationError(f"node must have >= 1 core, got {spec.cores}")
        self.env = env
        self.owner = owner
        self.spec = spec
        self.monitors = monitors
        self.engine = Resource(env, capacity=1)
        self._busy_counter = None

    def kernel_seconds(self, kernel: str, n_elements: int) -> float:
        """Duration of a kernel invocation over ``n_elements`` elements."""
        return n_elements * self.spec.kernel_sec_per_element(kernel) / self.spec.cores

    def run_kernel(self, kernel: str, n_elements: int):
        """Event: occupy the engine for the kernel's duration; the
        event's value is the busy time in seconds."""
        return self._busy(self.kernel_seconds(kernel, n_elements), f"kernel:{kernel}")

    def service(self, seconds: float, label: str = "service"):
        """Event: occupy the engine for fixed control-plane work."""
        return self._busy(seconds, label)

    def _busy(self, seconds: float, label: str) -> Event:
        # Hand-built grant -> timeout -> release chain; see Disk._io for
        # why this matches the generator form's event stream bit for bit
        # (here booking precedes the release push, as the old `with`
        # block booked before exiting).
        if seconds < 0:
            raise SimulationError(f"negative CPU time {seconds!r}")
        env = self.env
        done = Event(env)
        engine = self.engine

        def on_grant(_e: Event) -> None:
            start = env.now

            def on_fire(_e: Event) -> None:
                c = self._busy_counter
                if c is None:
                    c = self._busy_counter = self.monitors.counter(
                        f"cpu.busy.{self.owner}"
                    )
                c.add(env.now - start)
                monitors = self.monitors
                tracer = monitors.tracer
                if tracer.enabled:
                    tracer.begin(
                        label, cat="cpu", track=monitors.lane + self.owner, at=start
                    ).finish()
                engine.release(req)
                done.succeed(seconds)

            timer = Timeout(env, seconds)
            timer.callbacks.append(on_fire)

        req = Request(engine)
        req.callbacks.append(on_grant)
        return done
