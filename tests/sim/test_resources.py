"""Unit tests for Resource, Store and FilterStore."""

import pytest

from repro.errors import SimulationError
from repro.sim import FilterStore, Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        granted = []

        def user(name):
            with res.request() as req:
                yield req
                granted.append((env.now, name))
                yield env.timeout(1)

        for name in "abc":
            env.process(user(name))
        env.run()
        assert granted == [(0, "a"), (0, "b"), (1, "c")]

    def test_fifo_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(hold)

        for name in "abcd":
            env.process(user(name, 1))
        env.run()
        assert order == list("abcd")

    def test_count_tracks_users(self, env):
        res = Resource(env, capacity=2)
        counts = []

        def user():
            with res.request() as req:
                yield req
                counts.append(res.count)
                yield env.timeout(1)

        env.process(user())
        env.process(user())
        env.run()
        assert max(counts) == 2
        assert res.count == 0

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient():
            req = res.request()
            result = yield req | env.timeout(1)
            assert req not in result
            req.cancel()
            return "gave up"

        env.process(holder())
        p = env.process(impatient())
        assert env.run(until=p) == "gave up"
        env.run()
        assert not res.queue

    def test_released_slot_goes_to_next(self, env):
        res = Resource(env, capacity=1)
        log = []

        def first():
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)
            log.append(("first-out", env.now))

        def second():
            with res.request() as req:
                yield req
                log.append(("second-in", env.now))

        env.process(first())
        env.process(second())
        env.run()
        assert ("second-in", 5) in log


class TestStore:
    def test_fifo_item_order(self, env):
        store = Store(env)

        def producer():
            for item in (1, 2, 3):
                yield store.put(item)

        def consumer():
            got = []
            for _ in range(3):
                got.append((yield store.get()))
            return got

        env.process(producer())
        p = env.process(consumer())
        assert env.run(until=p) == [1, 2, 3]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            yield store.put("b")
            log.append(("b-stored", env.now))

        def consumer():
            yield env.timeout(4)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [("b-stored", 4)]

    def test_len_reports_queued_items(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2


class TestFilterStore:
    def test_predicate_selects_item(self, env):
        store = FilterStore(env)
        for item in (1, 2, 3, 4):
            store.put(item)

        def consumer():
            odd = yield store.get(lambda i: i % 2 == 1)
            even = yield store.get(lambda i: i % 2 == 0)
            return (odd, even)

        p = env.process(consumer())
        assert env.run(until=p) == (1, 2)

    def test_unmatched_consumer_waits(self, env):
        store = FilterStore(env)
        log = []

        def consumer():
            item = yield store.get(lambda i: i == "wanted")
            log.append((item, env.now))

        def producer():
            yield env.timeout(1)
            yield store.put("other")
            yield env.timeout(1)
            yield store.put("wanted")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [("wanted", 2)]
        assert store.items == ["other"]

    def test_blocked_consumer_does_not_block_others(self, env):
        store = FilterStore(env)
        got = []

        def picky():
            item = yield store.get(lambda i: i == "never")
            got.append(item)

        def easy():
            item = yield store.get()
            got.append(item)

        env.process(picky())
        env.process(easy())

        def producer():
            yield env.timeout(1)
            yield store.put("anything")

        env.process(producer())
        env.run()
        assert got == ["anything"]
