"""Tests for the LineString extension (paper future work)."""

import pytest

from repro.geo.geojson import (
    GeoJSONError,
    linestring_to_geojson,
    parse_geometry,
    parse_linestring,
)
from repro.geo.geometry import BoundingBox, LineString, Point


def line(*coords):
    return LineString(tuple(Point(x, y) for x, y in coords))


class TestLineString:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            LineString((Point(0, 0),))

    def test_bbox(self):
        l = line((0, 0), (10, 5), (3, -2))
        assert l.bbox == BoundingBox(0, -2, 10, 5)

    def test_sample_density(self):
        l = line((0, 0), (1, 0))
        samples = l.sample(0.1)
        assert len(samples) >= 11
        assert samples[0] == Point(0, 0)
        assert samples[-1] == Point(1, 0)

    def test_sample_rejects_bad_step(self):
        with pytest.raises(ValueError):
            line((0, 0), (1, 1)).sample(0)


class TestIntersectsBox:
    BOX = BoundingBox(2, 2, 5, 5)

    def test_endpoint_inside(self):
        assert line((3, 3), (10, 10)).intersects_box(self.BOX)

    def test_crossing_through(self):
        # Enters and leaves without a vertex inside.
        assert line((0, 3.5), (10, 3.5)).intersects_box(self.BOX)

    def test_diagonal_crossing(self):
        assert line((0, 0), (10, 10)).intersects_box(self.BOX)

    def test_fully_outside(self):
        assert not line((6, 0), (10, 3)).intersects_box(self.BOX)

    def test_parallel_near_miss(self):
        assert not line((0, 6), (10, 6)).intersects_box(self.BOX)

    def test_touching_corner(self):
        assert line((0, 4), (2, 2)).intersects_box(self.BOX)

    def test_multi_segment(self):
        l = line((0, 0), (1, 10), (10, 10), (4, 4))
        assert l.intersects_box(self.BOX)


class TestGeoJSON:
    def test_roundtrip(self):
        l = line((23.7, 37.9), (23.8, 38.0))
        assert parse_linestring(linestring_to_geojson(l)) == l

    def test_parse_geometry_dispatch(self):
        geo = {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}
        assert isinstance(parse_geometry(geo), LineString)

    def test_rejects_malformed(self):
        with pytest.raises(GeoJSONError):
            parse_linestring({"type": "LineString", "coordinates": [[0, 0]]})
        with pytest.raises(GeoJSONError):
            parse_linestring({"type": "Point", "coordinates": [0, 0]})
        with pytest.raises(GeoJSONError):
            parse_linestring({"type": "LineString", "coordinates": [[0], [1]]})
