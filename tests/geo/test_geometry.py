"""Tests for geometry primitives."""

import pytest

from repro.geo.geometry import BoundingBox, Point, Polygon


class TestPoint:
    def test_valid(self):
        p = Point(23.7, 37.9)
        assert (p.lon, p.lat) == (23.7, 37.9)

    def test_rejects_bad_lon(self):
        with pytest.raises(ValueError):
            Point(181.0, 0.0)

    def test_rejects_bad_lat(self):
        with pytest.raises(ValueError):
            Point(0.0, -91.0)

    def test_ordering_is_lexicographic(self):
        assert Point(1.0, 2.0) < Point(1.0, 3.0) < Point(2.0, 0.0)


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox(5.0, 0.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 5.0, 1.0, 4.0)

    def test_contains(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.contains(Point(5.0, 5.0))
        assert box.contains(Point(0.0, 0.0))  # boundary inclusive
        assert not box.contains(Point(10.1, 5.0))

    def test_intersects(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(5.0, 5.0, 15.0, 15.0)
        c = BoundingBox(11.0, 11.0, 12.0, 12.0)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_touching_boxes_intersect(self):
        a = BoundingBox(0.0, 0.0, 5.0, 5.0)
        b = BoundingBox(5.0, 0.0, 10.0, 5.0)
        assert a.intersects(b)

    def test_paper_small_vs_big_area_ratio(self):
        # Section 5.1: the big rectangle is ~2,603x the small one.
        small = BoundingBox(23.757495, 37.987295, 23.766958, 37.992997)
        big = BoundingBox(23.606039, 38.023982, 24.032754, 38.353926)
        ratio = big.area_deg2() / small.area_deg2()
        assert 2400 < ratio < 2800

    def test_world(self):
        w = BoundingBox(-180.0, -90.0, 180.0, 90.0)
        assert w.width == 360.0
        assert w.height == 180.0

    def test_to_polygon_closed_ring(self):
        poly = BoundingBox(0.0, 0.0, 1.0, 1.0).to_polygon()
        assert poly.ring[0] == poly.ring[-1]
        assert len(poly.ring) == 5


class TestPolygon:
    def test_requires_closed_ring(self):
        with pytest.raises(ValueError):
            Polygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))

    def test_requires_minimum_points(self):
        with pytest.raises(ValueError):
            Polygon((Point(0, 0), Point(1, 1), Point(0, 0)))

    def test_contains_interior(self):
        poly = BoundingBox(0.0, 0.0, 10.0, 10.0).to_polygon()
        assert poly.contains(Point(5.0, 5.0))
        assert not poly.contains(Point(15.0, 5.0))

    def test_contains_boundary(self):
        poly = BoundingBox(0.0, 0.0, 10.0, 10.0).to_polygon()
        assert poly.contains(Point(0.0, 5.0))
        assert poly.contains(Point(10.0, 10.0))

    def test_non_rectangular(self):
        # A triangle: (0,0), (10,0), (0,10).
        tri = Polygon(
            (Point(0, 0), Point(10, 0), Point(0, 10), Point(0, 0))
        )
        assert tri.contains(Point(2.0, 2.0))
        assert not tri.contains(Point(9.0, 9.0))

    def test_bbox(self):
        tri = Polygon(
            (Point(0, 0), Point(10, 0), Point(0, 10), Point(0, 0))
        )
        assert tri.bbox == BoundingBox(0.0, 0.0, 10.0, 10.0)
