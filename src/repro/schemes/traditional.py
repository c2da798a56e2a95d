"""Traditional Storage (TS) — paper Section IV-A1.

"The servers are responsible for normal I/O operations.  The analysis
kernels are executed on the clients."  The compute nodes partition the
raster into contiguous element ranges; each node reads its range plus
the dependence halo through the PFS client and runs the kernel locally.
Results stay at the compute nodes, where the analysis application
consumes them (the convention of the client-side processing baseline:
derived data feeds the "further computation" in client memory) — pass
``write_back=True`` to also persist the output through the PFS, which
doubles the client<->storage traffic.

Either way every input byte crosses the compute<->storage links, which
is exactly the movement active storage exists to avoid.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ActiveStorageError
from ..kernels.stencil import Window, window_bounds
from ..obs.span import NULL_SPAN
from ..sim import contain_failures
from .base import Scheme


class TraditionalScheme(Scheme):
    """Ship data to the compute nodes and compute there."""

    name = "TS"

    def __init__(self, pfs, registry=None, write_back: bool = False):
        super().__init__(pfs, registry)
        self.write_back = write_back
        #: node name -> (first element, output array); assembled by
        #: :meth:`client_output` for verification.
        self._client_results: Dict[str, tuple] = {}

    def client_output(self, meta_shape=None) -> np.ndarray:
        """Assemble the in-client-memory results of the last operation
        (verification aid; carries no simulated cost)."""
        if not self._client_results:
            raise ActiveStorageError("no client-side results recorded")
        total = sum(arr.size for _, arr in self._client_results.values())
        out = np.empty(total, dtype=np.float64)
        for first, arr in self._client_results.values():
            out[first : first + arr.size] = arr
        return out.reshape(meta_shape) if meta_shape is not None else out

    def _serve(self, operator: str, input_file: str, output_file: str, options):
        kernel = self.registry.get(operator)
        meta = self.pfs.metadata.lookup(input_file)
        compute_nodes = self.cluster.compute_nodes
        if not compute_nodes:
            raise ActiveStorageError("TS requires at least one compute node")
        # Results go to a per-serve dict so concurrent serves (the
        # serving layer's normal path) don't clobber each other; the
        # caller may supply its own sink to read them back.
        results: Dict[str, tuple] = options.get("results_sink", {})
        results.clear()
        self._client_results = results

        write_back = bool(options.get("write_back", self.write_back))
        if write_back and not self.pfs.metadata.exists(output_file):
            self.pfs.metadata.create(
                output_file,
                meta.size,
                meta.layout,
                dtype=np.float64,
                shape=meta.shape,
            )

        pattern = kernel.pattern()
        width = meta.width if meta.shape is not None else 1
        rb = pattern.reach_before(width)
        ra = pattern.reach_after(width)
        span = options.get("trace_span") or NULL_SPAN
        tracer = self.cluster.monitors.tracer

        def compute(node, client, first: int, count: int):
            """Read the share's window and apply the kernel; value is the
            output share.  A generator of its own so that the window dies
            at its return instead of staying pinned by ``worker`` while
            the output is written back."""
            win_lo, win_hi = window_bounds(first, count, rb, ra, meta.n_elements)
            rspan = NULL_SPAN
            if span:
                rspan = tracer.begin(
                    f"read:{node.name}",
                    cat="read",
                    parent=span,
                    node=node.name,
                    bytes=(win_hi - win_lo) * meta.element_size,
                )
            raw = yield client.read(
                meta.name,
                win_lo * meta.element_size,
                (win_hi - win_lo) * meta.element_size,
                span=rspan,
            )
            rspan.finish()
            window = Window(
                data=raw.view(meta.dtype).astype(np.float64, copy=False),
                lo=win_lo,
                first=first,
                end=first + count,
                width=width,
                n_elements=meta.n_elements,
            )
            cspan = NULL_SPAN
            if span:
                cspan = tracer.begin(
                    f"compute:{node.name}",
                    cat="compute",
                    parent=span,
                    node=node.name,
                    kernel=kernel.name,
                    elements=count,
                )
            yield node.cpu.run_kernel(kernel.name, count)
            cspan.finish()
            return kernel.apply_window(window)

        def worker(node, first: int, count: int):
            client = self.pfs.client(node.name)
            out = yield from compute(node, client, first, count)
            results[node.name] = (first, out)
            if write_back:
                yield client.write_elems(output_file, first, out)

        # Even contiguous partition over the compute nodes.
        shares = self._partition(meta.n_elements, len(compute_nodes))
        workers = [
            self.env.process(worker(node, first, count), name=f"ts-worker:{node.name}")
            for node, (first, count) in zip(compute_nodes, shares)
            if count
        ]
        for job in contain_failures(workers):
            yield job

        return self._result(
            operator,
            input_file,
            output_file,
            offloaded=False,
            extra={"write_back": write_back},
        )

    @staticmethod
    def _partition(n_elements: int, n_workers: int):
        """Contiguous, balanced element shares (first gets the remainder)."""
        base, extra = divmod(n_elements, n_workers)
        shares = []
        first = 0
        for k in range(n_workers):
            count = base + (1 if k < extra else 0)
            shares.append((first, count))
            first += count
        return shares
