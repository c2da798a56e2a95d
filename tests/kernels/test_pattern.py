"""Unit tests for dependence patterns and the paper's record format."""

import numpy as np
import pytest

from repro.errors import PatternParseError
from repro.kernels import DependencePattern, OffsetTerm


class TestOffsetTerm:
    def test_resolve(self):
        assert OffsetTerm(-1, 1).resolve(100) == -99
        assert OffsetTerm(0, -3).resolve(100) == -3
        assert OffsetTerm(2, 0).resolve(10) == 20

    @pytest.mark.parametrize(
        "term,text",
        [
            (OffsetTerm(0, 5), "5"),
            (OffsetTerm(0, -5), "-5"),
            (OffsetTerm(1, 0), "imgWidth"),
            (OffsetTerm(-1, 0), "-imgWidth"),
            (OffsetTerm(1, 1), "imgWidth+1"),
            (OffsetTerm(-1, -1), "-imgWidth-1"),
            (OffsetTerm(2, -3), "2*imgWidth-3"),
            (OffsetTerm(0, 0), "0"),
        ],
    )
    def test_to_text(self, term, text):
        assert term.to_text() == text


class TestParsing:
    def test_paper_flow_routing_record(self):
        text = (
            "Name:flow-routing\n"
            "Dependence: -imgWidth+1, -imgWidth, -imgWidth-1, -1, 1,"
            " imgWidth-1, imgWidth, imgWidth+1\n"
        )
        [p] = DependencePattern.parse(text)
        assert p == DependencePattern.eight_neighbor("flow-routing")

    def test_roundtrip_through_text(self):
        original = DependencePattern.eight_neighbor("op")
        [parsed] = DependencePattern.parse(original.to_text())
        assert parsed == original

    def test_multiple_records(self):
        text = "Name:a\nDependence: -1, 1\nName:b\nDependence: imgWidth\n"
        patterns = DependencePattern.parse(text)
        assert [p.name for p in patterns] == ["a", "b"]

    def test_wrapped_dependence_lines(self):
        text = "Name:op\nDependence: -imgWidth+1, -imgWidth,\n  -1, 1\n"
        [p] = DependencePattern.parse(text)
        assert len(p.terms) == 4

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\nName:op\nDependence: 1\n"
        [p] = DependencePattern.parse(text)
        assert p.offsets(1).tolist() == [1]

    def test_empty_dependence_means_independent(self):
        [p] = DependencePattern.parse("Name:scan\nDependence:\n")
        assert p.is_independent

    def test_dependence_before_name_rejected(self):
        with pytest.raises(PatternParseError):
            DependencePattern.parse("Dependence: 1\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(PatternParseError):
            DependencePattern.parse("what is this\n")

    def test_empty_text_rejected(self):
        with pytest.raises(PatternParseError):
            DependencePattern.parse("")

    def test_bad_offset_expression_rejected(self):
        with pytest.raises(PatternParseError):
            DependencePattern.parse("Name:x\nDependence: imgHeight+1\n")

    def test_coefficient_syntax(self):
        [p] = DependencePattern.parse("Name:x\nDependence: 2*imgWidth+1\n")
        assert p.offsets(10).tolist() == [21]


class TestPatternQueries:
    def test_eight_neighbor_offsets(self):
        p = DependencePattern.eight_neighbor("op")
        assert p.offsets(10).tolist() == [-11, -10, -9, -1, 1, 9, 10, 11]

    def test_four_neighbor_offsets(self):
        p = DependencePattern.four_neighbor("op")
        assert p.offsets(10).tolist() == [-10, -1, 1, 10]

    def test_stride_pattern(self):
        p = DependencePattern.stride("op", 7)
        assert p.offsets(1).tolist() == [-7, 7]

    def test_independent(self):
        p = DependencePattern.independent("scan")
        assert p.is_independent
        assert p.reach(10) == 0
        assert p.offsets(10).size == 0

    def test_reach_before_after(self):
        p = DependencePattern.eight_neighbor("op")
        assert p.reach(10) == 11
        assert p.reach_before(10) == 11
        assert p.reach_after(10) == 11

    def test_asymmetric_reach(self):
        p = DependencePattern.from_offsets("op", [-2, 5])
        assert p.reach_before(1) == 2
        assert p.reach_after(1) == 5

    @pytest.mark.parametrize(
        "pattern",
        [
            DependencePattern.eight_neighbor("op"),
            DependencePattern.four_neighbor("op"),
            DependencePattern.stride("op", 7),
            DependencePattern.independent("op"),
            DependencePattern.from_offsets("op", [-2, 5]),
            DependencePattern.from_offsets("op", [3, 9]),
            DependencePattern.from_offsets("op", [-4, -1, 0]),
            DependencePattern("op", [OffsetTerm(-2, 3), OffsetTerm(1, -5)]),
        ],
    )
    @pytest.mark.parametrize("width", [1, 2, 10, 991])
    def test_reach_equals_the_array_formulation(self, pattern, width):
        offs = pattern.offsets(width)
        neg, pos = offs[offs < 0], offs[offs > 0]
        assert pattern.reach(width) == (int(np.abs(offs).max()) if offs.size else 0)
        assert pattern.reach_before(width) == (int(-neg.min()) if neg.size else 0)
        assert pattern.reach_after(width) == (int(pos.max()) if pos.size else 0)
        for reach in (pattern.reach, pattern.reach_before, pattern.reach_after):
            assert type(reach(width)) is int

    def test_reach_of_a_width_dependent_pattern_needs_width(self):
        p = DependencePattern.eight_neighbor("op")
        for reach in (p.reach, p.reach_before, p.reach_after):
            with pytest.raises(PatternParseError):
                reach(0)

    def test_kernels_build_their_pattern_once(self):
        from repro.kernels import default_registry

        for kernel in default_registry:
            assert kernel.pattern() is kernel.pattern()
            assert kernel.pattern().name == kernel.name

    def test_halo_rows(self):
        assert DependencePattern.eight_neighbor("x").halo_rows() == 2
        assert DependencePattern.four_neighbor("x").halo_rows() == 1
        assert DependencePattern.stride("x", 3).halo_rows() == 1
        assert DependencePattern.independent("x").halo_rows() == 0

    def test_duplicate_terms_removed(self):
        p = DependencePattern("op", [OffsetTerm(0, 1), OffsetTerm(0, 1)])
        assert len(p.terms) == 1

    def test_width_dependent_pattern_needs_width(self):
        p = DependencePattern.eight_neighbor("op")
        with pytest.raises(PatternParseError):
            p.offsets(0)

    def test_equality_and_hash(self):
        a = DependencePattern.eight_neighbor("op")
        b = DependencePattern.eight_neighbor("op")
        c = DependencePattern.eight_neighbor("other")
        assert a == b and hash(a) == hash(b)
        assert a != c
