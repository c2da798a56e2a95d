"""Unit tests for fault plans, chaos-spec parsing and recovery policy."""

import numpy as np
import pytest

from repro.errors import FaultSpecError
from repro.faults import KINDS, FaultEvent, FaultPlan, RecoveryPolicy


class TestFaultEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(at=-1.0, kind="crash", target="s0")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="meteor", target="s0")

    def test_pairwise_kinds_need_a_peer(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="cut", target="c0")
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="heal", target="c0")

    def test_single_target_kinds_reject_a_peer(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="crash", target="s0", peer="s1")

    def test_slow_factor_bounds(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="slow", target="s0", factor=0.0)
        with pytest.raises(FaultSpecError):
            FaultEvent(at=0.0, kind="slow", target="s0", factor=1.5)
        FaultEvent(at=0.0, kind="slow", target="s0", factor=1.0)  # boundary ok

    def test_spec_formats_each_shape(self):
        assert FaultEvent(at=2.0, kind="crash", target="s1").spec() == "crash:s1@2"
        assert (
            FaultEvent(at=1.0, kind="slow", target="s2", factor=0.25).spec()
            == "slow:s2@1x0.25"
        )
        assert (
            FaultEvent(at=1.5, kind="cut", target="c0", peer="s3").spec()
            == "cut:c0-s3@1.5"
        )


class TestParse:
    def test_round_trip(self):
        spec = "crash:s1@2;recover:s1@4;slow:s2@1x0.25;cut:c0-s3@1"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.spec()) == plan
        # Times that are not 6-significant-digit floats round-trip too:
        # chaos-bench's own crash plan (0.3 * 6.0 == 1.7999999999999998)
        # and a seeded random schedule with a non-trivial slow factor.
        crash = FaultPlan.single_crash("s1", 0.3 * 6.0, 0.7 * 6.0)
        assert FaultPlan.parse(crash.spec()) == crash
        drawn = FaultPlan.random(
            np.random.default_rng(20120910), ["s0", "s1", "s2"], 6.0, crashes=3
        )
        slow = FaultEvent(at=1.0 / 3.0, kind="slow", target="s2", factor=0.1 / 3.0)
        noisy = FaultPlan.from_events(drawn.events + (slow,))
        assert FaultPlan.parse(noisy.spec()) == noisy

    def test_events_sorted_by_time_then_kind(self):
        plan = FaultPlan.parse("recover:s1@4;crash:s1@2;heal:a-b@2;crash:s0@2")
        assert [e.at for e in plan] == [2.0, 2.0, 2.0, 4.0]
        # Same-time ties break on KINDS order (crash before heal).
        assert [e.kind for e in plan] == ["crash", "crash", "heal", "recover"]
        assert [e.target for e in plan][:2] == ["s0", "s1"]

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("  ;  ; ")

    def test_malformed_clause_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("crash-s1-2.0")
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("crash:s1@soon")
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("slow:s1@1xfast")
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("cut:c0@1")  # pairwise without a-b target

    def test_kind_is_case_insensitive(self):
        assert FaultPlan.parse("CRASH:s1@2").events[0].kind == "crash"

    def test_targets_collects_both_link_ends(self):
        plan = FaultPlan.parse("cut:c0-s3@1;crash:s1@2")
        assert plan.targets() == ("c0", "s1", "s3")


class TestBuilders:
    def test_single_crash_without_recovery(self):
        plan = FaultPlan.single_crash("s1", at=2.0)
        assert len(plan) == 1 and plan.events[0].kind == "crash"

    def test_single_crash_with_recovery(self):
        plan = FaultPlan.single_crash("s1", at=2.0, recover_at=4.0)
        assert [e.kind for e in plan] == ["crash", "recover"]

    def test_single_crash_recover_must_follow_crash(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.single_crash("s1", at=2.0, recover_at=2.0)

    def test_random_is_deterministic_per_seed(self):
        servers = ["s0", "s1", "s2"]
        a = FaultPlan.random(np.random.default_rng(7), servers, 10.0, crashes=3)
        b = FaultPlan.random(np.random.default_rng(7), servers, 10.0, crashes=3)
        assert a == b
        c = FaultPlan.random(np.random.default_rng(8), servers, 10.0, crashes=3)
        assert a != c

    def test_random_crash_recover_pairs_inside_duration(self):
        plan = FaultPlan.random(np.random.default_rng(3), ["s0"], 10.0, crashes=2)
        assert len(plan) == 4
        for event in plan:
            assert 0.0 <= event.at <= 9.5  # recoveries clamp to 0.95 * duration

    def test_random_needs_servers_and_duration(self):
        rng = np.random.default_rng(0)
        with pytest.raises(FaultSpecError):
            FaultPlan.random(rng, [], 10.0)
        with pytest.raises(FaultSpecError):
            FaultPlan.random(rng, ["s0"], 0.0)

    def test_truthiness_and_len(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        assert FaultPlan.single_crash("s0", at=1.0)

    def test_kinds_exported(self):
        assert set(KINDS) == {"crash", "recover", "slow", "restore", "cut", "heal"}


class TestRecoveryPolicy:
    def test_defaults_valid(self):
        policy = RecoveryPolicy()
        assert policy.rpc_timeout > 0 and policy.hedge_delay is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rpc_timeout=0.0),
            dict(max_attempts=0),
            dict(backoff=-0.1),
            dict(backoff_factor=0.5),
            dict(hedge_delay=-1.0),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(FaultSpecError):
            RecoveryPolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = RecoveryPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
