"""The band driver and the three minimum-pass kernels against what they
replaced.

``RowBlockKernel.apply_rows`` walks a block in bands and the median,
gaussian and flow-accumulation bodies were rewritten to their pass
floor.  Every committed CRC was produced by the routines before that, so
they live on here as oracles (as the D8 stack does in
``test_d8_oracle``), and two properties hold the new code to them:

* *banding is exact* — for every registered row-block kernel the banded
  result is byte for byte the single-band one, on rasters that cross
  several band seams and on the awkward shapes around one band;
* *scratch is bounded* — a whole-raster ``reference`` holds its output
  plus O(band) bytes, not a few rasters.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    D8_OFFSETS,
    GaussianFilterKernel,
    RowBlockKernel,
    default_registry,
    pad_rows,
)
from repro.kernels.stencil import Scratch, band_rows

KERNELS = [k for k in default_registry if isinstance(k, RowBlockKernel)]
MEDIAN = default_registry.get("median")
GAUSSIAN = default_registry.get("gaussian")
ACCUMULATION = default_registry.get("flow-accumulation")


# -- the replaced routines -------------------------------------------------------
def oracle_median(block: np.ndarray) -> np.ndarray:
    p = pad_rows(block, fill="edge")
    rows, cols = block.shape
    stack = np.empty((9, rows, cols), dtype=np.float64)
    idx = 0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            stack[idx] = p[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
            idx += 1
    # np.median is the mean of the one middle element, i.e. 0 + m: a zero
    # median is +0.0 whatever the window held.  Spelt out so the oracle
    # does not depend on how a NumPy release sums a single -0.0.
    return np.median(stack, axis=0) + 0.0


def oracle_gaussian(block: np.ndarray) -> np.ndarray:
    p = pad_rows(block, fill="edge")
    rows, cols = block.shape
    out = np.zeros_like(block)
    tap = np.empty_like(block)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            view = p[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
            out += np.multiply(view, GaussianFilterKernel.WEIGHTS[dr + 1, dc + 1], out=tap)
    return out


def oracle_accumulation(block: np.ndarray) -> np.ndarray:
    p = pad_rows(block, fill=0.0)
    rows, cols = block.shape
    out = np.ones_like(block)
    points_here = np.empty(block.shape, dtype=np.bool_)
    for k, (dr, dc) in enumerate(D8_OFFSETS):
        view = p[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
        np.equal(view, float(8 - k), out=points_here)
        out += points_here
    return out


def single_band(kernel: RowBlockKernel, block: np.ndarray) -> np.ndarray:
    """The kernel's stencil over the whole block as one band."""
    out = np.empty(block.shape, dtype=np.float64)
    kernel.stencil(pad_rows(block, fill=kernel.fill), out, Scratch())
    return out


# -- rasters ---------------------------------------------------------------------
FLAVOURS = (
    "smooth",
    "ties",
    "codes",
    "signed-zeros",
    "inf",
    "subnormal",
    "huge",
    "nan-filler",
    "nan-scattered",
)


def raster(flavour: str, rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    smooth = rng.standard_normal((rows, cols))
    if flavour == "smooth":
        return smooth
    if flavour == "ties":  # plateaus: most windows hold repeated values
        return np.floor(smooth * 1.5)
    if flavour == "codes":  # a direction raster, what flow-accumulation reads
        return rng.integers(0, 9, size=(rows, cols)).astype(np.float64)
    if flavour == "signed-zeros":
        zeros = np.where(rng.random((rows, cols)) < 0.5, -0.0, 0.0)
        return np.where(rng.random((rows, cols)) < 0.3, smooth, zeros)
    if flavour == "inf":
        out = smooth.copy()
        out[rng.random(out.shape) < 0.1] = np.inf
        out[rng.random(out.shape) < 0.1] = -np.inf
        return out
    if flavour == "subnormal":  # products underflow, some to -0.0
        return smooth * 1e-320
    if flavour == "huge":  # sums overflow to +-inf, inf - inf to NaN
        return np.where(smooth > 0, 1.7e308, -1.7e308) * rng.random((rows, cols))
    if flavour == "nan-filler":  # a server window: NaN outside the range
        out = np.floor(smooth * 1.5)
        flat = out.reshape(-1)
        flat[: flat.size // 7] = np.nan
        flat[flat.size - flat.size // 5 :] = np.nan
        return out
    if flavour == "nan-scattered":
        out = smooth.copy()
        out[rng.random(out.shape) < 0.05] = np.nan
        return out
    raise AssertionError(flavour)


def assert_banded_is_single_band(block: np.ndarray) -> None:
    for kernel in KERNELS:
        with np.errstate(all="ignore"):
            banded = kernel.apply_rows(block)
            whole = single_band(kernel, block)
        assert banded.dtype == whole.dtype == np.float64
        assert banded.tobytes() == whole.tobytes(), kernel.name


def assert_matches_oracles(block: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        for kernel, oracle in (
            (MEDIAN, oracle_median),
            (GAUSSIAN, oracle_gaussian),
            (ACCUMULATION, oracle_accumulation),
        ):
            assert kernel.apply_rows(block).tobytes() == oracle(block).tobytes(), kernel.name


# -- banding is exact ------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    flavour=st.sampled_from(FLAVOURS),
    cols=st.integers(1, 3),
    seams=st.integers(3, 4),
    extra=st.integers(-1, 2),
    seed=st.integers(0, 2**16),
)
def test_banded_equals_single_band_across_seams(flavour, cols, seams, extra, seed):
    rows = seams * band_rows(cols) + extra
    block = raster(flavour, rows, cols, seed)
    assert_banded_is_single_band(block)
    assert_matches_oracles(block)


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("delta", [-1, 0, 1, 2])
def test_rows_around_one_band(flavour, delta):
    cols = 2048  # band_rows == 16
    block = raster(flavour, band_rows(cols) + delta, cols, seed=delta + 7)
    assert_banded_is_single_band(block)
    assert_matches_oracles(block)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4099), (2, 2), (3, 5), (70001, 1)])
@pytest.mark.parametrize("flavour", ["ties", "signed-zeros", "nan-filler"])
def test_degenerate_shapes(shape, flavour):
    block = raster(flavour, *shape, seed=shape[0] + shape[1])
    assert_banded_is_single_band(block)
    assert_matches_oracles(block)


def test_band_budget_is_floored_at_eight_rows():
    assert band_rows(991) == 33
    assert band_rows(10**6) == 8
    block = raster("ties", 27, 5000, seed=1)  # bands of 8 rows, a ragged last one
    assert_banded_is_single_band(block)
    assert_matches_oracles(block)


# -- median ----------------------------------------------------------------------
def test_a_nan_poisons_exactly_its_windows():
    block = raster("ties", 40, 9, seed=2)
    block[17, 4] = np.nan
    out = MEDIAN.apply_rows(block)
    expected = np.zeros(block.shape, dtype=bool)
    expected[16:19, 3:6] = True
    assert np.array_equal(np.isnan(out), expected)


def test_a_zero_median_is_positive_zero():
    zeros = np.where(np.random.default_rng(3).random((12, 9)) < 0.5, -0.0, 0.0)
    for block in (zeros, np.full((4, 4), -0.0)):
        out = MEDIAN.apply_rows(block)
        assert out.tobytes() == np.zeros(block.shape).tobytes()


# -- scratch is bounded ----------------------------------------------------------
@pytest.mark.parametrize("name", ["gaussian", "median", "flow-routing"])
def test_reference_holds_its_output_plus_a_band(name):
    kernel = default_registry.get(name)
    dem = np.random.default_rng(4).standard_normal((1024, 1024))
    kernel.reference(dem[:64])  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        out = kernel.reference(dem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * out.nbytes, f"{name}: {peak / out.nbytes:.2f} rasters"
