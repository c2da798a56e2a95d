"""Unit tests for the metadata service and file-meta arithmetic."""

import numpy as np
import pytest

from repro.errors import FileExistsInPFS, FileNotFoundInPFS, PFSError
from repro.pfs import MetadataService, RoundRobinLayout
from repro.pfs.datafile import FileMeta

LAYOUT = RoundRobinLayout(["s0", "s1"], strip_size=1024)


class TestMetadataService:
    def test_create_and_lookup(self):
        md = MetadataService()
        meta = md.create("f", 2048, LAYOUT)
        assert md.lookup("f") is meta
        assert md.exists("f")
        assert "f" in md
        assert len(md) == 1

    def test_duplicate_create_rejected(self):
        md = MetadataService()
        md.create("f", 10, LAYOUT)
        with pytest.raises(FileExistsInPFS):
            md.create("f", 10, LAYOUT)

    def test_missing_lookup_raises(self):
        with pytest.raises(FileNotFoundInPFS):
            MetadataService().lookup("ghost")

    def test_unlink_removes(self):
        md = MetadataService()
        md.create("f", 10, LAYOUT)
        md.unlink("f")
        assert not md.exists("f")
        with pytest.raises(FileNotFoundInPFS):
            md.unlink("f")

    def test_listing_sorted(self):
        md = MetadataService()
        for name in ("b", "a", "c"):
            md.create(name, 8, LAYOUT)
        assert md.listing() == ["a", "b", "c"]

    def test_set_layout_swaps_record(self):
        md = MetadataService()
        md.create("f", 2048, LAYOUT)
        other = RoundRobinLayout(["s0", "s1", "s2"], strip_size=1024)
        md.set_layout("f", other)
        assert md.lookup("f").layout is other


class TestFileMeta:
    def test_shape_size_consistency_enforced(self):
        with pytest.raises(PFSError):
            FileMeta("f", size=100, layout=LAYOUT, shape=(10, 10))  # needs 800

    def test_negative_size_rejected(self):
        with pytest.raises(PFSError):
            FileMeta("f", size=-1, layout=LAYOUT)

    def test_element_arithmetic(self):
        meta = FileMeta("f", size=800, layout=LAYOUT, shape=(10, 10))
        assert meta.element_size == 8
        assert meta.n_elements == 100
        assert meta.width == 10
        assert meta.elem_range_bytes(2, 5) == (16, 40)

    def test_width_requires_shape(self):
        meta = FileMeta("f", size=800, layout=LAYOUT)
        with pytest.raises(PFSError):
            _ = meta.width

    def test_dtype_normalised(self):
        meta = FileMeta("f", size=400, layout=LAYOUT, dtype="float32")
        assert meta.dtype == np.dtype(np.float32)
        assert meta.n_elements == 100
