"""Tests for the rectangle → covering-ranges decomposition."""

import math
import random

import pytest

from repro.reference import reference_decode_cell, reference_encode_cell
from repro.sfc.geohash import GeoHashGrid
from repro.sfc.hilbert import HilbertCurve2D
from repro.sfc.ranges import (
    CurveRange,
    RangeSet,
    covering_range_set,
    covering_ranges,
)
from repro.sfc.zorder import ZOrderCurve2D


def brute_force_cells(curve, min_x, min_y, max_x, max_y):
    cx0, cy0, cx1, cy1 = curve.cell_range_for_box(min_x, min_y, max_x, max_y)
    return {
        reference_encode_cell(curve, cx, cy)
        for cx in range(cx0, cx1 + 1)
        for cy in range(cy0, cy1 + 1)
    }


def ranges_to_cells(ranges):
    out = set()
    for r in ranges:
        out.update(range(r.lo, r.hi + 1))
    return out


UNIT_CURVES = [
    HilbertCurve2D(order=5, min_x=0, min_y=0, max_x=32, max_y=32),
    ZOrderCurve2D(order=5, min_x=0, min_y=0, max_x=32, max_y=32),
    GeoHashGrid(10),
]

BOXES = [
    (0.0, 0.0, 31.9, 31.9),  # whole domain
    (3.2, 4.7, 9.8, 12.1),
    (0.0, 0.0, 0.5, 0.5),  # single cell
    (15.5, 15.5, 16.5, 16.5),  # straddles the centre
    (30.0, 0.0, 31.5, 31.5),  # right edge strip
]


class TestCoveringExactness:
    @pytest.mark.parametrize("curve", UNIT_CURVES, ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("box", BOXES)
    def test_exact_cover(self, curve, box):
        if isinstance(curve, GeoHashGrid):
            # Scale unit boxes into lon/lat space for the global grid.
            sx = 360.0 / 32.0
            sy = 180.0 / 32.0
            box = (
                -180 + box[0] * sx,
                -90 + box[1] * sy,
                -180 + box[2] * sx,
                -90 + box[3] * sy,
            )
        expected = brute_force_cells(curve, *box)
        ranges = covering_ranges(curve, *box)
        assert ranges_to_cells(ranges) == expected

    def test_ranges_sorted_disjoint_maximal(self):
        curve = UNIT_CURVES[0]
        ranges = covering_ranges(curve, 2.0, 3.0, 20.0, 25.0)
        for a, b in zip(ranges, ranges[1:]):
            assert a.hi + 1 < b.lo  # disjoint AND non-adjacent (maximal)

    def test_full_domain_single_range(self):
        curve = HilbertCurve2D(order=4, min_x=0, min_y=0, max_x=16, max_y=16)
        ranges = covering_ranges(curve, 0, 0, 16, 16)
        assert ranges == [CurveRange(0, 255)]

    def test_empty_rectangle_rejected(self):
        curve = UNIT_CURVES[0]
        with pytest.raises(ValueError):
            covering_ranges(curve, 5.0, 5.0, 4.0, 6.0)

    def test_hilbert_fewer_ranges_than_zorder(self):
        # The clustering property (Moon et al.) the paper cites: Hilbert
        # coverings need no more (usually fewer) ranges than Z-order for
        # the same query rectangles, on average.
        h = HilbertCurve2D(order=7, min_x=0, min_y=0, max_x=128, max_y=128)
        z = ZOrderCurve2D(order=7, min_x=0, min_y=0, max_x=128, max_y=128)
        boxes = [
            (3.0, 5.0, 40.0, 61.0),
            (10.0, 10.0, 90.0, 30.0),
            (64.5, 2.0, 100.0, 90.0),
            (20.0, 20.0, 25.0, 110.0),
        ]
        h_total = sum(len(covering_ranges(h, *b)) for b in boxes)
        z_total = sum(len(covering_ranges(z, *b)) for b in boxes)
        assert h_total <= z_total


class TestQuadrants:
    """Each curve's ``QUADRANTS`` table is the reference decoder's."""

    @staticmethod
    def _check(curve, rng):
        def derived(d0, m):
            side = 1 << m
            cx, cy = reference_decode_cell(curve, d0)
            sx0, sy0 = cx & ~(side - 1), cy & ~(side - 1)
            out = []
            for i in range(4):
                x, y = reference_decode_cell(
                    curve, d0 + i * (1 << (2 * (m - 1)))
                )
                out.append(((x - sx0) >> (m - 1), (y - sy0) >> (m - 1)))
            return out

        def visit(d0, m, state, depth):
            table = curve.QUADRANTS[state]
            assert derived(d0, m) == [(dx, dy) for dx, dy, _ in table]
            if m == 1:
                return
            step = 1 << (2 * (m - 1))
            if depth < 3:
                children = range(4)  # every node of the top levels
            else:
                children = [rng.randrange(4)]  # then one random path
            for i in children:
                visit(d0 + i * step, m - 1, table[i][2], depth + 1)

        visit(0, curve.order, 0, 0)

    @pytest.mark.parametrize("order", range(1, 14))
    def test_tables_match_decode_cell(self, order):
        rng = random.Random(order)
        for curve in (
            HilbertCurve2D(order=order),
            HilbertCurve2D(order, 23.5, 37.7, 24.1, 38.2),
            ZOrderCurve2D(order=order),
            GeoHashGrid(2 * order),
        ):
            self._check(curve, rng)


CLAMP_CURVES = [
    HilbertCurve2D.global_curve(13),
    ZOrderCurve2D.global_curve(13),
    GeoHashGrid(26),
]


class TestCellOfClamping:
    @pytest.mark.parametrize(
        "curve", CLAMP_CURVES, ids=lambda c: type(c).__name__
    )
    @pytest.mark.parametrize("far", [1e308, math.inf])
    def test_huge_and_infinite_coordinates_clamp(self, curve, far):
        n = curve.cells_per_side
        assert curve.cell_of(far, 0.0)[0] == n - 1
        assert curve.cell_of(-far, 0.0)[0] == 0
        assert curve.cell_of(0.0, far)[1] == n - 1
        assert curve.cell_of(0.0, -far)[1] == 0
        assert covering_ranges(curve, 170.0, 0.0, far, 1.0)

    @pytest.mark.parametrize(
        "curve", CLAMP_CURVES, ids=lambda c: type(c).__name__
    )
    def test_nan_coordinate_names_the_axis(self, curve):
        with pytest.raises(ValueError, match="coordinate x is NaN"):
            curve.cell_of(math.nan, 0.0)
        with pytest.raises(ValueError, match="coordinate y is NaN"):
            curve.cell_of(0.0, math.nan)


class TestCoarsening:
    def test_max_ranges_respected(self):
        curve = UNIT_CURVES[1]  # Z-order fragments heavily
        full = covering_ranges(curve, 3.0, 3.0, 28.0, 17.0)
        assert len(full) > 4
        coarse = covering_ranges(curve, 3.0, 3.0, 28.0, 17.0, max_ranges=4)
        assert len(coarse) <= 4

    def test_coarsening_is_superset(self):
        curve = UNIT_CURVES[1]
        full = ranges_to_cells(covering_ranges(curve, 3.0, 3.0, 28.0, 17.0))
        coarse = ranges_to_cells(
            covering_ranges(curve, 3.0, 3.0, 28.0, 17.0, max_ranges=3)
        )
        assert full <= coarse

    def test_max_ranges_one_single_interval(self):
        curve = UNIT_CURVES[0]
        coarse = covering_ranges(curve, 1.0, 1.0, 30.0, 30.0, max_ranges=1)
        assert len(coarse) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_ranges_below_one_rejected(self, limit):
        # Not silently the uncapped covering: the cap can come from a
        # caller's max_geo_ranges.
        with pytest.raises(ValueError, match="max_ranges"):
            covering_ranges(UNIT_CURVES[0], 1.0, 1.0, 30.0, 30.0, limit)


class TestRangeSet:
    def test_split_singles_from_ranges(self):
        rs = RangeSet.from_ranges(
            [CurveRange(1, 5), CurveRange(7, 7), CurveRange(9, 12)]
        )
        assert rs.singles == (7,)
        assert rs.ranges == (CurveRange(1, 5), CurveRange(9, 12))
        assert rs.total_cells == 5 + 1 + 4

    def test_contains(self):
        rs = RangeSet.from_ranges([CurveRange(1, 5), CurveRange(7, 7)])
        assert rs.contains(3)
        assert rs.contains(7)
        assert not rs.contains(6)

    def test_touching_ranges_coalesce(self):
        # [1, 5] and [6, 9] cover one contiguous curve interval; the
        # decomposition must emit a single clause for it.
        rs = RangeSet.from_ranges([CurveRange(1, 5), CurveRange(6, 9)])
        assert rs.ranges == (CurveRange(1, 9),)
        assert rs.singles == ()

    def test_overlapping_and_contained_ranges_coalesce(self):
        rs = RangeSet.from_ranges(
            [CurveRange(1, 8), CurveRange(3, 5), CurveRange(7, 12)]
        )
        assert rs.ranges == (CurveRange(1, 12),)
        assert rs.singles == ()

    def test_single_touching_range_coalesces(self):
        # A one-cell range adjacent to an interval joins it rather
        # than surviving as a separate $in member.
        rs = RangeSet.from_ranges([CurveRange(1, 5), CurveRange(6, 6)])
        assert rs.ranges == (CurveRange(1, 6),)
        assert rs.singles == ()

    def test_adjacent_singles_coalesce_into_range(self):
        rs = RangeSet.from_ranges(
            [CurveRange(4, 4), CurveRange(5, 5), CurveRange(9, 9)]
        )
        assert rs.ranges == (CurveRange(4, 5),)
        assert rs.singles == (9,)

    def test_coalescing_is_order_independent(self):
        pieces = [CurveRange(6, 9), CurveRange(1, 5), CurveRange(11, 11)]
        forward = RangeSet.from_ranges(pieces)
        backward = RangeSet.from_ranges(list(reversed(pieces)))
        assert forward == backward
        assert forward.ranges == (CurveRange(1, 9),)
        assert forward.singles == (11,)

    def test_all_ranges_sorted(self):
        rs = RangeSet.from_ranges(
            [CurveRange(9, 12), CurveRange(7, 7), CurveRange(1, 5)]
        )
        assert [r.lo for r in rs.all_ranges] == [1, 7, 9]

    def test_encoded_points_covered(self):
        # Every point inside the box must encode to a covered value —
        # the guarantee the Hilbert query's $or clause depends on.
        curve = HilbertCurve2D.global_curve(13)
        box = (23.606039, 38.023982, 24.032754, 38.353926)  # the paper's Qb
        rs = covering_range_set(curve, *box)
        import random

        rng = random.Random(5)
        for _ in range(300):
            lon = rng.uniform(box[0], box[2])
            lat = rng.uniform(box[1], box[3])
            assert rs.contains(curve.encode(lon, lat))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            CurveRange(5, 4)
