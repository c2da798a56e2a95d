"""Tests for the server-side strip cache."""

import numpy as np
import pytest

from repro.config import PlatformSpec
from repro.errors import PFSError
from repro.hw import Cluster
from repro.pfs import ParallelFileSystem
from repro.pfs.cache import StripCache
from repro.units import KiB, MiB
from repro.workloads import fractal_dem


class TestStripCacheUnit:
    def test_negative_budget_rejected(self):
        with pytest.raises(PFSError):
            StripCache(-1)

    def test_disabled_cache_never_hits(self):
        cache = StripCache(0)
        cache.insert(("f", 0), 100)
        assert not cache.lookup(("f", 0))
        assert cache.hit_rate == 0.0

    def test_hit_after_insert(self):
        cache = StripCache(1000)
        assert not cache.lookup(("f", 0))  # miss
        cache.insert(("f", 0), 100)
        assert cache.lookup(("f", 0))  # hit
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_respects_budget(self):
        cache = StripCache(250)
        for i in range(3):
            cache.insert(("f", i), 100)
        assert cache.used_bytes <= 250
        assert ("f", 0) not in cache  # evicted first
        assert ("f", 2) in cache
        assert cache.evictions == 1

    def test_monitored_cache_mirrors_counters(self):
        from repro.sim import Environment, MonitorHub

        monitors = MonitorHub(Environment())
        cache = StripCache(250, monitors=monitors, owner="s0")
        cache.lookup(("f", 0))  # miss
        cache.insert(("f", 0), 100)
        cache.lookup(("f", 0))  # hit
        for i in range(1, 3):
            cache.insert(("f", i), 100)  # forces one eviction
        assert monitors.counter("pfs.cache.hits.s0").value == cache.hits == 1
        assert monitors.counter("pfs.cache.misses.s0").value == cache.misses == 1
        assert monitors.counter("pfs.cache.evictions.s0").value == cache.evictions == 1

    def test_monitored_cache_requires_owner(self):
        from repro.sim import Environment, MonitorHub

        with pytest.raises(PFSError):
            StripCache(100, monitors=MonitorHub(Environment()))

    def test_recency_refresh_on_lookup(self):
        cache = StripCache(250)
        cache.insert(("f", 0), 100)
        cache.insert(("f", 1), 100)
        cache.lookup(("f", 0))  # refresh 0
        cache.insert(("f", 2), 100)  # must evict 1, not 0
        assert ("f", 0) in cache
        assert ("f", 1) not in cache

    def test_oversized_strip_not_cached(self):
        cache = StripCache(50)
        cache.insert(("f", 0), 100)
        assert ("f", 0) not in cache
        assert cache.used_bytes == 0

    def test_reinsert_updates_size(self):
        cache = StripCache(300)
        cache.insert(("f", 0), 100)
        cache.insert(("f", 0), 200)
        assert cache.used_bytes == 200

    def test_invalidate_file(self):
        cache = StripCache(1000)
        cache.insert(("a", 0), 10)
        cache.insert(("a", 1), 10)
        cache.insert(("b", 0), 10)
        assert cache.invalidate_file("a") == 2
        assert ("b", 0) in cache
        assert cache.used_bytes == 10


class TestCachedDataServer:
    def build(self, cache_bytes):
        spec = PlatformSpec(server_cache_bytes=cache_bytes)
        cluster = Cluster.build(n_compute=1, n_storage=2, spec=spec)
        pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
        dem = fractal_dem(64, 64, rng=np.random.default_rng(81))
        pfs.client("c0").ingest("dem", dem, pfs.round_robin())
        return cluster, pfs, dem

    def repeated_read_times(self, cache_bytes):
        cluster, pfs, dem = self.build(cache_bytes)
        client = pfs.client("c0")

        def main():
            t0 = cluster.env.now
            yield client.read("dem", 0, dem.nbytes)
            t1 = cluster.env.now
            yield client.read("dem", 0, dem.nbytes)
            t2 = cluster.env.now
            return t1 - t0, t2 - t1

        return cluster.run(until=cluster.env.process(main())), cluster

    def test_second_read_faster_with_cache(self):
        (cold, warm), cluster = self.repeated_read_times(1 * MiB)
        assert warm < cold
        # The warm read did no disk I/O at all.
        assert cluster.monitors.counter_total("pfs.cache_hit_bytes.") > 0
        # The hit/miss tallies flow through the cluster monitors: the
        # cold pass misses every strip, the warm pass hits them all.
        hits = cluster.monitors.counter_total("pfs.cache.hits.")
        misses = cluster.monitors.counter_total("pfs.cache.misses.")
        assert hits > 0 and misses > 0
        assert hits == misses  # same strips: one cold miss, one warm hit

    def test_no_speedup_without_cache(self):
        (cold, warm), cluster = self.repeated_read_times(0)
        assert warm == pytest.approx(cold, rel=0.05)
        # A disabled cache records nothing in the monitors.
        assert cluster.monitors.counter_total("pfs.cache.hits.") == 0
        assert cluster.monitors.counter_total("pfs.cache.misses.") == 0

    def test_eviction_counters_under_tight_budget(self):
        """A budget far below the file size forces evictions that are
        visible through the cluster monitors (hit ratio ~ 0 on a scan)."""
        cluster, pfs, dem = self.build(8 * KiB)  # 2 strips of budget
        client = pfs.client("c0")

        def main():
            yield client.read("dem", 0, dem.nbytes)
            yield client.read("dem", 0, dem.nbytes)

        cluster.run(until=cluster.env.process(main()))
        assert cluster.monitors.counter_total("pfs.cache.evictions.") > 0
        for name, server in pfs.servers.items():
            assert (
                cluster.monitors.counter(f"pfs.cache.evictions.{name}").value
                == server.cache.evictions
            )

    def test_cached_reads_still_return_correct_bytes(self):
        cluster, pfs, dem = self.build(1 * MiB)
        client = pfs.client("c0")
        raw = dem.view(np.uint8).reshape(-1)

        def main():
            first = yield client.read("dem", 0, dem.nbytes)
            second = yield client.read("dem", 100, 5000)
            return first, second

        first, second = cluster.run(until=cluster.env.process(main()))
        assert np.array_equal(first, raw)
        assert np.array_equal(second, raw[100:5100])

    def test_write_through_populates_cache(self):
        cluster, pfs, dem = self.build(1 * MiB)
        client = pfs.client("c0")

        def main():
            yield client.write_elems("dem", 0, np.zeros(512, dtype=np.float64))
            t0 = cluster.env.now
            yield client.read("dem", 0, 4096)  # the strip just written
            return cluster.env.now - t0

        warm = cluster.run(until=cluster.env.process(main()))
        # No disk read happened for the cached strip.
        ds = pfs.servers["s0"]
        assert ds.cache.hits >= 1

    def test_scheme_correct_with_cache_enabled(self, drive):
        spec = PlatformSpec(server_cache_bytes=4 * MiB)
        cluster = Cluster.build(n_compute=2, n_storage=2, spec=spec)
        pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
        dem = fractal_dem(96, 128, rng=np.random.default_rng(82))
        from repro.harness.platform import ingest_for_scheme
        from repro.kernels import default_registry
        from repro.schemes import DynamicActiveStorageScheme

        ingest_for_scheme(pfs, "DAS", "in", dem, "gaussian")
        res = drive(
            cluster, DynamicActiveStorageScheme(pfs).run_operation("gaussian", "in", "out")
        )
        ref = default_registry.get("gaussian").reference(dem)
        assert np.array_equal(pfs.client("c0").collect("out"), ref)


def test_cold_pipeline_shaped_cell_with_cache_matches_cache_off():
    """A DAS pipeline over a redistributed round-robin DEM plus a TS
    write-back, at 4 KiB strips: the page cache changes disk time, never
    bytes.  The disk and cache-hit totals were pinned on the per-strip
    store the run store replaced; the page cache stays per strip."""
    import zlib

    from repro.core import ActiveStorageClient, Pipeline
    from repro.schemes import TraditionalScheme

    def cell(cache_bytes):
        spec = PlatformSpec(server_cache_bytes=cache_bytes)
        cluster = Cluster.build(n_compute=4, n_storage=4, spec=spec)
        pfs = ParallelFileSystem(cluster, strip_size=4 * KiB)
        client = pfs.client("c0")
        client.ingest("dem", fractal_dem(192, 256, rng=np.random.default_rng(7)), pfs.round_robin())
        pipeline = Pipeline(("flow-routing", "flow-accumulation", "gaussian"))
        stages = cluster.run(until=pipeline.submit(ActiveStorageClient(pfs, home="c0"), "dem"))
        assert all(stage.offloaded for stage in stages)
        cluster.run(
            until=TraditionalScheme(pfs, write_back=True).run_operation("gaussian", "dem", "dem.ts")
        )
        outputs = [r.output for r in pipeline.requests("dem")] + ["dem.ts"]
        crcs = [zlib.crc32(client.collect(name).tobytes()) for name in outputs]
        m = cluster.monitors
        hits = {
            k: c.value for k, c in sorted(m.counters.items()) if k.startswith("pfs.cache_hit_bytes.")
        }
        return crcs, m.counter("disk.read_total").value, hits

    off_crcs, off_disk, off_hits = cell(0)
    on_crcs, on_disk, on_hits = cell(96 * KiB)
    assert on_crcs == off_crcs
    assert (off_disk, off_hits) == (1_937_600, {})
    assert on_disk == 1_615_992
    assert on_hits == {
        "pfs.cache_hit_bytes.s0": 73_728,
        "pfs.cache_hit_bytes.s1": 75_800,
        "pfs.cache_hit_bytes.s2": 79_896,
        "pfs.cache_hit_bytes.s3": 92_184,
    }
