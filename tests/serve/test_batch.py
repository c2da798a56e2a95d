"""The batched offload fan-out: keying, window merging, fairness
charging, amortisation, and bit-identical results.

Unit level: batch keys and queue draining are pure and deterministic;
expired riders settle at drain time; a batch-incapable executor is
rejected up front.  Integration level: a burst of same-key requests over
the real storage stack completes with fewer fan-outs, fewer header and
halo bytes, and byte-identical outputs compared to unbatched dispatch.
"""

import zlib
from collections import deque

import numpy as np
import pytest

from repro.errors import ServeError
from repro.scenarios.platform import (
    SERVE_SPEC,
    SERVE_STRIP,
    ExperimentPlatform,
    build_platform,
    ingest_for_scheme,
)
from repro.serve import (
    COMPLETED,
    EXPIRED,
    FairScheduler,
    LoadAwareExecutor,
    SLOBoard,
    ServeRequest,
    TenantSpec,
    batch_key,
    merge_window,
)
from repro.serve.batch import digest_bytes
from repro.workloads import fractal_dem

QUANTUM = 1024


def _req(req_id, tenant, file="f", operator="op", deadline=1000.0, cost=QUANTUM):
    return ServeRequest(
        req_id=req_id,
        tenant=tenant,
        operator=operator,
        file=file,
        arrival=0.0,
        deadline=deadline,
        cost=cost,
    )


class TestBatchKey:
    def test_same_footprint_same_key(self):
        assert batch_key(_req(1, "a")) == batch_key(_req(2, "b"))

    def test_output_name_is_excluded(self):
        a, b = _req(1, "a"), _req(2, "a")
        assert a.output != b.output
        assert batch_key(a) == batch_key(b)

    def test_file_kernel_pipeline_all_distinguish(self):
        base = _req(1, "a")
        assert batch_key(_req(2, "a", file="g")) != batch_key(base)
        assert batch_key(_req(3, "a", operator="other")) != batch_key(base)
        other = _req(4, "a")
        other.pipeline_length = 3
        assert batch_key(other) != batch_key(base)


class TestDigestBytes:
    def test_hashes_the_buffer_it_is_given(self):
        raster = np.arange(35, dtype=np.float64).reshape(5, 7)
        raster.setflags(write=False)  # what the dataset cache hands out
        assert digest_bytes(raster) == zlib.crc32(raster.tobytes())
        assert digest_bytes(raster[1:3]) == zlib.crc32(raster[1:3].tobytes())
        assert digest_bytes(b"strip") == zlib.crc32(b"strip")
        assert digest_bytes(np.empty(0)) == 0

    def test_non_contiguous_input_is_rejected(self):
        raster = np.arange(35, dtype=np.float64).reshape(5, 7)
        with pytest.raises(TypeError):
            digest_bytes(raster[:, ::2])
        with pytest.raises(TypeError):
            digest_bytes(raster.T)


class TestMergeWindow:
    def _queues(self):
        return {
            "a": deque([_req(2, "a"), _req(3, "a", file="g")]),
            "b": deque([_req(4, "b"), _req(5, "b")]),
        }

    def test_drains_matching_across_tenants_in_order(self):
        queues = self._queues()
        riders = merge_window(queues, _req(1, "a"), batch_max=8)
        assert [r.req_id for r in riders] == [2, 4, 5]
        # Non-matching requests stay queued.
        assert [r.req_id for r in queues["a"]] == [3]
        assert not queues["b"]

    def test_respects_batch_max(self):
        queues = self._queues()
        riders = merge_window(queues, _req(1, "a"), batch_max=2)
        assert [r.req_id for r in riders] == [2]
        assert [r.req_id for r in queues["b"]] == [4, 5]

    def test_batch_max_one_merges_nothing(self):
        queues = self._queues()
        assert merge_window(queues, _req(1, "a"), batch_max=1) == []
        assert len(queues["a"]) == 2 and len(queues["b"]) == 2


class BatchStub:
    """Executor stub serving any batch in one fixed-time pass."""

    def __init__(self, cluster, service=1.0):
        self.env = cluster.env
        self.service = service
        self.batches = []

    def request_cost(self, req):
        return QUANTUM

    def execute_batch(self, batch, span=None):
        self.batches.append([r.req_id for r in batch])
        return self.env.process(self._run())

    def _run(self):
        yield self.env.timeout(self.service)
        return True


class TestSchedulerBatching:
    def test_batching_requires_batch_capable_executor(self):
        from repro.hw import Cluster

        cluster = Cluster.build(n_compute=1, n_storage=1)

        class NoBatch:
            def request_cost(self, req):
                return QUANTUM

            def execute(self, req):  # pragma: no cover - never dispatched
                raise AssertionError

        board = SLOBoard(cluster.monitors)
        with pytest.raises(ServeError):
            FairScheduler(
                cluster, (TenantSpec("t", rate=1.0),), NoBatch(), board,
                batch_max=2,
            )

    def test_one_fanout_serves_the_whole_burst(self):
        from repro.hw import Cluster

        cluster = Cluster.build(n_compute=1, n_storage=1)
        stub = BatchStub(cluster)
        board = SLOBoard(cluster.monitors)
        sched = FairScheduler(
            cluster, (TenantSpec("t", rate=1.0),), stub, board,
            concurrency=1, quantum=QUANTUM, batch_max=8,
        )
        for i in range(1, 7):
            sched.submit(_req(i, "t"))
        cluster.run()
        assert board.tenants["t"].outcomes[COMPLETED] == 6
        # One leader + five riders in a single fan-out.
        assert stub.batches == [[1, 2, 3, 4, 5, 6]]
        assert sched.batch_stats.dispatches == 1
        assert sched.batch_stats.requests == 6
        assert sched.batch_stats.hit_rate == pytest.approx(5 / 6)

    def test_riders_charge_their_own_tenant_deficit(self):
        from repro.hw import Cluster

        cluster = Cluster.build(n_compute=1, n_storage=1)
        stub = BatchStub(cluster, service=0.5)
        board = SLOBoard(cluster.monitors)
        sched = FairScheduler(
            cluster,
            (TenantSpec("a", rate=1.0, weight=1), TenantSpec("b", rate=1.0, weight=1)),
            stub,
            board,
            concurrency=1,
            quantum=QUANTUM,
            batch_max=4,
        )
        sched.submit(_req(1, "a"))
        sched.submit(_req(2, "b"))
        cluster.run()
        # b's request rode a's fan-out; b paid for it from its own
        # deficit (debt), so its balance went negative, not a's.
        assert stub.batches == [[1, 2]]
        assert sched._deficit["b"] <= 0.0
        assert board.tenants["b"].outcomes[COMPLETED] == 1

    def test_expired_rider_settles_at_drain(self):
        from repro.hw import Cluster

        cluster = Cluster.build(n_compute=1, n_storage=1)
        stub = BatchStub(cluster, service=1.0)
        board = SLOBoard(cluster.monitors)
        sched = FairScheduler(
            cluster, (TenantSpec("t", rate=1.0),), stub, board,
            concurrency=1, quantum=QUANTUM, batch_max=4,
        )
        # r1 occupies the slot for 1s; r2 (key B) then leads a batch in
        # which r3 (key B) has already expired; r4 (key B) still rides.
        sched.submit(_req(1, "t", file="a"))
        sched.submit(_req(2, "t", file="b"))
        sched.submit(_req(3, "t", file="b", deadline=0.3))
        sched.submit(_req(4, "t", file="b"))
        cluster.run()
        stats = board.tenants["t"]
        assert stats.outcomes[EXPIRED] == 1
        assert stats.outcomes[COMPLETED] == 3
        assert stats.settled == stats.admitted == 4
        assert stub.batches == [[1], [2, 4]]


def _das_burst(batch_max, n=6, tenants=("t",)):
    """Run an n-request same-(file, kernel) burst over the real stack."""
    platform = ExperimentPlatform(spec=SERVE_SPEC, strip_size=SERVE_STRIP)
    cluster, pfs = build_platform(8, platform)
    rng = np.random.default_rng(platform.seed)
    ingest_for_scheme(pfs, "DAS", "dem", fractal_dem(64, 96, rng=rng), "gaussian")
    executor = LoadAwareExecutor(pfs, scheme="DAS")
    board = SLOBoard(cluster.monitors)
    specs = tuple(TenantSpec(t, rate=1.0, files=("dem",)) for t in tenants)
    sched = FairScheduler(
        cluster, specs, executor, board,
        queue_capacity=64, concurrency=2, batch_max=batch_max,
    )
    for i in range(1, n + 1):
        sched.submit(
            ServeRequest(
                req_id=i,
                tenant=tenants[(i - 1) % len(tenants)],
                operator="gaussian",
                file="dem",
                arrival=0.0,
                deadline=1e9,
                cost=0,
            )
        )
    cluster.run()
    return cluster, board, executor, sched


class TestEndToEndAmortisation:
    @pytest.fixture(scope="class")
    def runs(self):
        return {bm: _das_burst(bm) for bm in (1, 8)}

    def test_everything_completes_both_ways(self, runs):
        for _, board, _, _ in runs.values():
            assert board.conservation_ok()
            assert board.tenants["t"].outcomes[COMPLETED] == 6

    def test_batched_uses_fewer_fanouts(self, runs):
        _, _, _, unbatched = runs[1]
        _, _, _, batched = runs[8]
        assert unbatched.batch_stats.dispatches == 6
        assert unbatched.batch_stats.hit_rate == 0.0
        assert batched.batch_stats.dispatches < 6
        assert batched.batch_stats.hit_rate > 0.0

    def test_outputs_bit_identical(self, runs):
        _, _, ex_off, _ = runs[1]
        _, _, ex_on, _ = runs[8]
        assert ex_off.digests  # digests were actually recorded
        assert ex_on.digests == ex_off.digests
        assert ex_on.result_digest() == ex_off.result_digest()

    def test_fewer_header_bytes_same_extent_bytes(self, runs):
        def wire(cluster):
            m = cluster.monitors
            return (
                m.counter("pfs.rpc.header_bytes").value
                + m.counter("as.rpc.header_bytes").value,
                m.counter("pfs.rpc.extent_desc_bytes").value,
            )

        hdr_off, ext_off = wire(runs[1][0])
        hdr_on, ext_on = wire(runs[8][0])
        assert hdr_on < hdr_off
        assert ext_on < ext_off  # fewer halo reads => fewer extents too

    def test_fewer_halo_bytes(self, runs):
        def halo(cluster):
            m = cluster.monitors
            return (
                m.counter("as.halo_bytes_local").value
                + m.counter("as.halo_bytes_remote").value
            )

        assert halo(runs[8][0]) < halo(runs[1][0])

    def test_batched_is_not_slower(self, runs):
        assert runs[8][0].env.now <= runs[1][0].env.now

    def test_cross_tenant_merge(self):
        _, board, _, sched = _das_burst(8, n=4, tenants=("a", "b"))
        assert sched.batch_stats.merged > 0
        for t in ("a", "b"):
            assert board.tenants[t].outcomes[COMPLETED] == 2
