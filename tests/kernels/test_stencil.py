"""Unit tests for window assembly and padding machinery."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (
    Window,
    assemble_rows,
    extract_core,
    flat_views,
    pad_rows,
    window_bounds,
)
from repro.kernels.stencil import D8_OFFSETS


def make_window(n=100, width=10, lo=20, first=30, end=60):
    data = np.arange(lo, min(n, end + 25), dtype=np.float64)
    return Window(
        data=data, lo=lo, first=first, end=end, width=width, n_elements=n
    )


class TestWindow:
    def test_valid_window(self):
        w = make_window()
        assert w.hi == w.lo + w.data.size

    def test_core_outside_window_rejected(self):
        with pytest.raises(KernelError):
            Window(
                data=np.zeros(5), lo=10, first=5, end=12, width=10, n_elements=100
            )

    def test_raster_width_mismatch_rejected(self):
        with pytest.raises(KernelError):
            Window(
                data=np.zeros(5), lo=0, first=0, end=5, width=7, n_elements=100
            )


class TestAssembleRows:
    def test_lifts_flat_window_to_rows(self):
        w = make_window(n=100, width=10, lo=25, first=30, end=40)
        block, r0 = assemble_rows(w)
        assert r0 == 2
        flat = block.reshape(-1)
        # Cells inside the window carry their element index values.
        assert flat[5] == 25  # element 25 at position 25 - 20
        assert np.isnan(flat[0])  # element 20..24 are outside the window

    def test_only_head_and_tail_gaps_are_nan(self):
        w = make_window(n=100, width=10, lo=25, first=30, end=40)  # hi = 65
        flat = assemble_rows(w)[0].reshape(-1)
        assert np.isnan(flat[:5]).all() and np.isnan(flat[45:]).all()
        assert flat[5:45].tolist() == list(range(25, 65))

    def test_full_raster_window_has_no_nans(self):
        data = np.arange(100, dtype=np.float64)
        w = Window(data=data, lo=0, first=0, end=100, width=10, n_elements=100)
        block, r0 = assemble_rows(w)
        assert r0 == 0
        assert not np.isnan(block).any()
        assert np.array_equal(block, data.reshape(10, 10))


class TestPadRows:
    def test_edge_padding_replicates_border(self):
        block = np.arange(6, dtype=np.float64).reshape(2, 3)
        p = pad_rows(block, "edge")
        assert p.shape == (4, 5)
        assert p[0, 0] == block[0, 0]
        assert p[-1, -1] == block[-1, -1]
        assert p[0, 2] == block[0, 1]

    def test_constant_padding(self):
        block = np.ones((2, 2))
        p = pad_rows(block, np.inf)
        assert np.isinf(p[0]).all()
        assert p[1, 1] == 1.0

    def test_requires_2d(self):
        with pytest.raises(KernelError):
            pad_rows(np.zeros(5))

    def test_a_band_takes_its_ring_rows_from_the_block(self):
        block = np.arange(24, dtype=np.float64).reshape(6, 4)
        whole = pad_rows(block, "edge")
        out = np.empty((4, 6))
        assert pad_rows(block, "edge", 2, 2, out=out) is out
        assert np.array_equal(out, whole[2:6])  # rows 1 and 4 are real, not fill
        assert np.array_equal(pad_rows(block, np.inf, 0, 3), pad_rows(block, np.inf)[:5])
        assert np.array_equal(pad_rows(block, 0.0, 3, 3), pad_rows(block, 0.0)[3:])

    def test_unknown_string_fill_rejected(self):
        with pytest.raises(KernelError, match="wrap"):
            pad_rows(np.ones((2, 2)), "wrap")


class TestNeighborStack:
    """The stack is gone; its slot order lives on in ``flat_views``."""

    def test_stack_order_matches_d8_offsets(self):
        block = np.arange(25, dtype=np.float64).reshape(5, 5)
        views = flat_views(pad_rows(block, 0.0))
        assert len(views) == 9 and all(v.shape == (5 * 7 - 2,) for v in views)
        centre = 2 * 7 + 2  # cell (2, 2) of a band 5 + 2 wide
        assert views[4][centre] == block[2, 2]
        for k, (dr, dc) in enumerate(D8_OFFSETS):
            assert (views[:4] + views[5:])[k][centre] == block[2 + dr, 2 + dc]

    def test_views_share_memory_with_padded_block(self):
        p = pad_rows(np.zeros((3, 4)), 0.0)
        views = flat_views(p)
        assert all(np.shares_memory(v, p) and v.flags.c_contiguous for v in views)
        p[0, 0] = 7.0  # the NW view's first cell *is* the ring corner
        assert views[0][0] == 7.0

    def test_d8_offsets_antisymmetric(self):
        for k, (dr, dc) in enumerate(D8_OFFSETS):
            assert D8_OFFSETS[7 - k] == (-dr, -dc)


class TestExtractCore:
    def test_extract_returns_core_slice(self):
        w = make_window(n=100, width=10, lo=20, first=30, end=60)
        block, r0 = assemble_rows(w)
        out = extract_core(block, r0, w)
        assert out.tolist() == list(range(30, 60))

    def test_core_escaping_block_rejected(self):
        w = make_window()
        block, r0 = assemble_rows(w)
        with pytest.raises(KernelError):
            extract_core(block[:1], r0 + 5, w)


class TestWindowBounds:
    def test_clamps_to_file(self):
        assert window_bounds(0, 10, 5, 5, 100) == (0, 15)
        assert window_bounds(95, 5, 5, 5, 100) == (90, 100)
        assert window_bounds(50, 10, 5, 5, 100) == (45, 65)

    def test_invalid_core_rejected(self):
        with pytest.raises(KernelError):
            window_bounds(-1, 5, 0, 0, 100)
        with pytest.raises(KernelError):
            window_bounds(99, 5, 0, 0, 100)
