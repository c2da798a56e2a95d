"""Unit tests for the small foundation modules: units, errors, config."""

import dataclasses

import pytest

from repro import errors
from repro.config import (
    FAT_NETWORK,
    HROTHGAR,
    NARROW_NETWORK,
    SLOW_CPU,
    PlatformSpec,
    SimConfig,
)
from repro.units import (
    GiB,
    KiB,
    MiB,
    fmt_bandwidth,
    fmt_bytes,
    fmt_time,
    ms,
    us,
)


class TestUnits:
    def test_binary_sizes(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB

    @pytest.mark.parametrize(
        "n,text",
        [
            (0, "0 B"),
            (512, "512 B"),
            (64 * KiB, "64.0 KiB"),
            (1.5 * MiB, "1.5 MiB"),
            (3 * GiB, "3.0 GiB"),
        ],
    )
    def test_fmt_bytes(self, n, text):
        assert fmt_bytes(n) == text

    @pytest.mark.parametrize(
        "t,text",
        [
            (2.0, "2.000 s"),
            (0.002, "2.000 ms"),
            (3e-6, "3.000 us"),
            (5e-9, "5.0 ns"),
            (90.0, "1.50 min"),
            (7200.0, "2.00 h"),
        ],
    )
    def test_fmt_time(self, t, text):
        assert fmt_time(t) == text

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(256 * MiB) == "256.0 MiB/s"

    def test_unit_constants_consistent(self):
        assert ms == 1000 * us


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SimulationError,
            errors.NetworkError,
            errors.PFSError,
            errors.KernelError,
            errors.ActiveStorageError,
            errors.HarnessError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_specific_errors_derive_from_subsystem(self):
        assert issubclass(errors.StripMissingError, errors.PFSError)
        assert issubclass(errors.NodeDownError, errors.NetworkError)
        assert issubclass(errors.PatternParseError, errors.KernelError)
        assert issubclass(errors.OffloadRejectedError, errors.ActiveStorageError)
        assert issubclass(errors.UnknownExperimentError, errors.HarnessError)

    def test_interrupt_carries_cause(self):
        exc = errors.InterruptError(cause="why")
        assert exc.cause == "why"

    def test_offload_rejected_carries_decision(self):
        exc = errors.OffloadRejectedError(decision="the-decision")
        assert exc.decision == "the-decision"


class TestPlatformSpec:
    def test_defaults_network_scarcer_than_disk(self):
        spec = PlatformSpec()
        assert spec.nic_bandwidth < spec.disk_bandwidth

    def test_kernel_cost_fallback(self):
        spec = PlatformSpec()
        assert spec.kernel_sec_per_element("unknown-op") == spec.kernel_cost["default"]
        assert (
            spec.kernel_sec_per_element("median") > spec.kernel_sec_per_element(
                "flow-routing"
            )
        )

    def test_with_overrides_is_a_copy(self):
        base = PlatformSpec()
        fast = base.with_overrides(nic_bandwidth=10 * GiB)
        assert fast.nic_bandwidth == 10 * GiB
        assert base.nic_bandwidth != fast.nic_bandwidth
        assert fast.disk_bandwidth == base.disk_bandwidth

    def test_presets_make_sense(self):
        assert NARROW_NETWORK.nic_bandwidth < HROTHGAR.nic_bandwidth
        assert FAT_NETWORK.nic_bandwidth > HROTHGAR.nic_bandwidth
        assert (
            SLOW_CPU.kernel_cost["default"] > HROTHGAR.kernel_cost["default"]
        )

    def test_spec_is_frozen(self):
        with pytest.raises(Exception):
            PlatformSpec().cores = 99  # type: ignore[misc]


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.strip_size == 64 * KiB  # PVFS2 default per the paper
        assert cfg.element_size == 8
        # Tracing is not a config knob: a live Tracer on the monitor
        # hub records device spans (see tests/metrics/test_timeline.py).
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "seed",
            "strip_size",
            "element_size",
        ]
