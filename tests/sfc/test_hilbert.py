"""Tests for the Hilbert curve implementation."""

import math

import pytest

from repro.sfc.hilbert import HilbertCurve2D


def _curve(order):
    side = 1 << order
    return HilbertCurve2D(order, 0, 0, side, side)


class TestHilbertXYToD:
    def test_order1_visits_all_four_cells(self):
        curve = _curve(1)
        ds = {curve.encode_cell(x, y) for x in range(2) for y in range(2)}
        assert ds == {0, 1, 2, 3}

    def test_order1_canonical_shape(self):
        # The order-1 Hilbert curve is the "cup": (0,0)→(0,1)→(1,1)→(1,0).
        curve = _curve(1)
        assert curve.encode_cell(0, 0) == 0
        assert curve.encode_cell(0, 1) == 1
        assert curve.encode_cell(1, 1) == 2
        assert curve.encode_cell(1, 0) == 3

    def test_bijective_order3(self):
        n = 8
        curve = _curve(3)
        ds = sorted(curve.encode_cell(x, y) for x in range(n) for y in range(n))
        assert ds == list(range(n * n))

    def test_roundtrip_order6(self):
        curve = _curve(6)
        for d in range(0, 4096, 7):
            x, y = curve.decode_cell(d)
            assert curve.encode_cell(x, y) == d

    def test_consecutive_distances_are_adjacent_cells(self):
        # Defining property of the Hilbert curve: consecutive distances
        # map to 4-neighbour cells (Manhattan distance exactly 1).
        curve = _curve(5)
        prev = curve.decode_cell(0)
        for d in range(1, 1024):
            cur = curve.decode_cell(d)
            assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1
            prev = cur

    def test_rejects_out_of_grid(self):
        with pytest.raises(ValueError):
            _curve(3).encode_cell(8, 0)
        with pytest.raises(ValueError):
            _curve(3).encode_cell(0, -1)

    def test_rejects_bad_order(self):
        for order in (0, -1, 33):
            with pytest.raises(ValueError):
                HilbertCurve2D(order=order)

    def test_rejects_out_of_range_distance(self):
        with pytest.raises(ValueError):
            _curve(2).decode_cell(16)
        with pytest.raises(ValueError):
            _curve(2).decode_cell(-1)


class TestHilbertCurve2D:
    def test_global_domain_defaults(self):
        curve = HilbertCurve2D.global_curve(13)
        assert curve.min_x == -180.0
        assert curve.max_y == 90.0
        assert curve.cells_per_side == 8192
        assert curve.max_distance == 4**13 - 1

    def test_encode_within_range(self):
        curve = HilbertCurve2D.global_curve(13)
        d = curve.encode(23.727539, 37.983810)
        assert 0 <= d <= curve.max_distance

    def test_encode_decode_cell_consistency(self):
        curve = HilbertCurve2D.global_curve(8)
        d = curve.encode(10.0, 45.0)
        cx, cy = curve.decode_cell(d)
        assert curve.encode_cell(cx, cy) == d

    def test_cell_bounds_contain_point(self):
        curve = HilbertCurve2D.global_curve(10)
        lon, lat = 23.7275, 37.9838
        d = curve.encode(lon, lat)
        x0, y0, x1, y1 = curve.cell_bounds(d)
        assert x0 <= lon <= x1
        assert y0 <= lat <= y1

    def test_clamps_out_of_domain_points(self):
        curve = HilbertCurve2D(order=4, min_x=0, min_y=0, max_x=10, max_y=10)
        assert curve.cell_of(-5.0, -5.0) == (0, 0)
        assert curve.cell_of(99.0, 99.0) == (15, 15)

    def test_boundary_point_lands_in_last_cell(self):
        curve = HilbertCurve2D.global_curve(5)
        cx, cy = curve.cell_of(180.0, 90.0)
        assert (cx, cy) == (31, 31)

    def test_nearby_points_have_close_distances(self):
        # Locality (the paper's reason for choosing Hilbert): two points
        # in the same cell share a distance.
        curve = HilbertCurve2D.global_curve(13)
        d1 = curve.encode(23.7275, 37.9838)
        d2 = curve.encode(23.7276, 37.9839)
        assert abs(d1 - d2) <= 3

    def test_restricted_domain_higher_precision(self):
        # hil* over a small bbox: its cells are much smaller than the
        # global curve's, so two points separated by ~2 km that share a
        # global cell get distinct restricted cells.
        global_curve = HilbertCurve2D.global_curve(13)
        local_curve = HilbertCurve2D(
            order=13, min_x=23.0, min_y=37.5, max_x=24.5, max_y=38.6
        )
        p1 = (23.70, 37.98)
        p2 = (23.72, 37.99)
        assert global_curve.encode(*p1) == global_curve.encode(*p2)
        assert local_curve.encode(*p1) != local_curve.encode(*p2)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            HilbertCurve2D(order=4, min_x=5, min_y=0, max_x=5, max_y=10)

    def test_cell_range_for_box_inclusive(self):
        curve = HilbertCurve2D(order=4, min_x=0, min_y=0, max_x=16, max_y=16)
        assert curve.cell_range_for_box(1.0, 2.0, 3.0, 4.0) == (1, 2, 3, 4)
