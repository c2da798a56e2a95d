"""The D8 kernels against the routine they replaced.

Flow-routing and flow-accumulation used to copy the eight neighbours
into an ``(8, rows, cols)`` stack and reduce it with ``argmin`` +
``take_along_axis``.  That routine lives on here as the oracle: the
view reductions in :mod:`repro.kernels` must reproduce it exactly —
first-minimum tie-break, NaN and ±inf behaviour included — because
every committed CRC was produced by it.
"""

import numpy as np
import pytest

from repro.kernels import D8_OFFSETS, default_registry, pad_rows

ROUTING = default_registry.get("flow-routing")
ACCUMULATION = default_registry.get("flow-accumulation")


def stack_of(padded: np.ndarray) -> np.ndarray:
    rows, cols = padded.shape[0] - 2, padded.shape[1] - 2
    return np.stack(
        [
            padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
            for dr, dc in D8_OFFSETS
        ]
    )


def oracle_routing(block: np.ndarray) -> np.ndarray:
    stack = stack_of(pad_rows(block, fill=np.inf))
    idx = stack.argmin(axis=0)
    lowest = np.take_along_axis(stack, idx[None, ...], axis=0)[0]
    with np.errstate(invalid="ignore"):
        return np.where(lowest < block, (idx + 1).astype(np.float64), 0.0)


def oracle_accumulation(block: np.ndarray) -> np.ndarray:
    stack = stack_of(pad_rows(block, fill=0.0))
    out = np.ones_like(block)
    for k in range(8):
        out += (stack[k] == float(8 - k)).astype(np.float64)
    return out


def assert_matches_oracle(dem: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):
        dirs = ROUTING.apply_rows(dem)
        acc = ACCUMULATION.apply_rows(dirs)
    assert dirs.dtype == np.float64 and acc.dtype == np.float64
    assert np.array_equal(dirs, oracle_routing(dem))
    assert np.array_equal(acc, oracle_accumulation(dirs))


def rasters():
    rng = np.random.default_rng(12)
    smooth = rng.standard_normal((33, 47))
    yield "smooth", smooth
    # Quantised to three levels: nearly every cell has tied minima.
    yield "ties", np.floor(smooth * 1.5)
    yield "flat", np.zeros((9, 11))
    yield "signed-zeros", np.where(rng.random((9, 11)) < 0.5, -0.0, 0.0)
    holes = smooth.copy()
    holes[rng.random(holes.shape) < 0.1] = np.inf
    holes[rng.random(holes.shape) < 0.1] = -np.inf
    yield "inf", holes
    # What a server window looks like: NaN outside the supplied range.
    filler = np.floor(smooth * 1.5)
    filler.reshape(-1)[:19] = np.nan
    filler.reshape(-1)[-30:] = np.nan
    yield "nan-filler", filler
    scattered = smooth.copy()
    scattered[rng.random(scattered.shape) < 0.05] = np.nan
    yield "nan-scattered", scattered


@pytest.mark.parametrize("dem", [pytest.param(d, id=n) for n, d in rasters()])
def test_values_match_oracle(dem):
    assert_matches_oracle(dem)


@pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (2, 2), (991, 991)])
def test_shapes_match_oracle(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    # Coarse levels keep ties frequent at every size.
    assert_matches_oracle(rng.integers(0, 6, size=shape).astype(np.float64))


def test_reference_matches_oracle_and_windowed_path():
    dem = np.floor(np.random.default_rng(3).standard_normal((20, 31)) * 2.0)
    dirs = ROUTING.reference(dem)
    assert np.array_equal(dirs, oracle_routing(dem))
    assert np.array_equal(ACCUMULATION.reference(dirs), oracle_accumulation(dirs))
    # The whole-raster shortcut and the flat-window path servers use agree.
    assert np.array_equal(dirs.reshape(-1), ROUTING.apply_range(dem, 0, dem.size))


def test_reference_leaves_input_alone():
    dem = np.random.default_rng(4).standard_normal((8, 9))
    dem.setflags(write=False)  # what DatasetSpec.generate() hands out
    for name in default_registry.names():
        out = default_registry.get(name).reference(dem)
        assert out.shape == dem.shape and not np.shares_memory(out, dem)
