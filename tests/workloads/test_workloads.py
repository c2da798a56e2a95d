"""Unit tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.workloads import (
    DatasetSpec,
    add_salt_pepper,
    dataset_for_label,
    fractal_dem,
    phantom_image,
    ramp_dem,
    raster_shape_for_bytes,
)


class TestFractalDem:
    def test_shape_and_dtype(self):
        dem = fractal_dem(30, 50)
        assert dem.shape == (30, 50)
        assert dem.dtype == np.float64
        assert dem.flags["C_CONTIGUOUS"]

    def test_deterministic_for_same_rng_seed(self):
        a = fractal_dem(16, 16, rng=np.random.default_rng(5))
        b = fractal_dem(16, 16, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_relief_bounds(self):
        dem = fractal_dem(32, 32, relief=500.0, tilt=0.0)
        assert dem.min() >= 0.0
        assert dem.max() <= 500.0 + 1e-9

    def test_tilt_raises_southern_rows(self):
        dem = fractal_dem(64, 64, tilt=1.0)
        assert dem[-8:].mean() > dem[:8].mean()

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            fractal_dem(0, 10)


class TestRampDem:
    def test_pure_ramp_is_monotone(self):
        ramp = ramp_dem(8, 8)
        assert ramp[0, 0] == 0
        assert ramp[7, 7] == 14
        assert (np.diff(ramp, axis=0) > 0).all()

    def test_noise_stays_bounded(self):
        ramp = ramp_dem(8, 8, noise=0.2, rng=np.random.default_rng(1))
        clean = ramp_dem(8, 8)
        assert np.abs(ramp - clean).max() <= 0.2


class TestPhantom:
    def test_nonnegative_intensity(self):
        img = phantom_image(32, 48, rng=np.random.default_rng(2))
        assert img.min() >= 0.0
        assert img.shape == (32, 48)

    def test_noiseless_phantom_peaks_at_one(self):
        img = phantom_image(64, 64, noise_sigma=0.0, rng=np.random.default_rng(2))
        assert img.max() == pytest.approx(1.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            phantom_image(10, -1)


class TestSaltPepper:
    def test_fraction_of_pixels_corrupted(self):
        img = phantom_image(64, 64, noise_sigma=0.0, rng=np.random.default_rng(3))
        noisy = add_salt_pepper(img, fraction=0.1, rng=np.random.default_rng(3))
        changed = (noisy != img).sum()
        # Some chosen pixels may already equal min/max; allow slack, and
        # the corrupted count itself is round(fraction * size).
        assert 0.08 * img.size <= changed <= round(0.1 * img.size) + 1

    def test_original_untouched(self):
        img = phantom_image(16, 16, rng=np.random.default_rng(4))
        copy = img.copy()
        add_salt_pepper(img, fraction=0.5, rng=np.random.default_rng(4))
        assert np.array_equal(img, copy)

    def test_zero_fraction_identity(self):
        img = phantom_image(16, 16, rng=np.random.default_rng(4))
        assert np.array_equal(add_salt_pepper(img, 0.0), img)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            add_salt_pepper(np.zeros((4, 4)), fraction=1.5)


class TestDatasetSpecs:
    def test_shape_for_bytes_close_and_under(self):
        rows, cols = raster_shape_for_bytes(10_000_000)
        assert rows * cols * 8 <= 10_000_000
        assert rows * cols * 8 >= 0.95 * 10_000_000

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            raster_shape_for_bytes(4)

    def test_label_scaling(self):
        spec = dataset_for_label(24, scale=1024)
        assert spec.label_gb == 24
        assert abs(spec.n_bytes - 24 * 1024) / (24 * 1024) < 0.1

    def test_generate_dem_and_image(self):
        dem_spec = dataset_for_label(1, kind="dem", scale=64 * 1024)
        img_spec = dataset_for_label(1, kind="image", scale=64 * 1024)
        assert dem_spec.generate().shape == dem_spec.shape
        assert img_spec.generate().shape == img_spec.shape

    def test_unknown_kind_rejected(self):
        spec = DatasetSpec(label_gb=1, rows=10, cols=10, kind="hologram")
        with pytest.raises(ValueError):
            spec.generate()

    def test_generation_deterministic_by_seed(self):
        spec = dataset_for_label(1, scale=64 * 1024, seed=9)
        assert np.array_equal(spec.generate(), spec.generate())

    def test_generate_is_memoised_and_read_only(self):
        spec = dataset_for_label(1, scale=64 * 1024, seed=11)
        first = spec.generate()
        assert spec.generate() is first
        # An equal spec built separately hits the same entry.
        assert dataset_for_label(1, scale=64 * 1024, seed=11).generate() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert first.copy().flags.writeable

    def test_different_seeds_give_different_arrays(self):
        a = dataset_for_label(1, scale=64 * 1024, seed=1).generate()
        b = dataset_for_label(1, scale=64 * 1024, seed=2).generate()
        assert a is not b and not np.array_equal(a, b)

    def test_cache_stays_bounded(self):
        bound = DatasetSpec.generate.cache_info().maxsize
        specs = [DatasetSpec(1, 6, 7, seed=s) for s in range(bound + 3)]
        oldest = specs[0].generate()
        for spec in specs[1:]:
            spec.generate()
        assert DatasetSpec.generate.cache_info().currsize == bound
        # Evicted, so regenerated: equal values, a new object.
        again = specs[0].generate()
        assert again is not oldest and np.array_equal(again, oldest)

    def test_fractal_dem_callers_unaffected(self):
        spec = DatasetSpec(1, 12, 9, seed=5)
        direct = fractal_dem(12, 9, rng=np.random.default_rng(5))
        assert direct.flags.writeable
        assert np.array_equal(direct, spec.generate())
        assert not np.shares_memory(direct, spec.generate())
