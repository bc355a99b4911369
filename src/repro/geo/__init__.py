"""Geometry and GeoJSON support."""

from repro.geo.geojson import (
    GeoJSONError,
    linestring_to_geojson,
    parse_geometry,
    parse_linestring,
    parse_point,
    parse_polygon,
    point_to_geojson,
    polygon_to_geojson,
)
from repro.geo.geometry import (
    BoundingBox,
    LineString,
    Point,
    Polygon,
)

__all__ = [
    "GeoJSONError",
    "linestring_to_geojson",
    "parse_geometry",
    "parse_linestring",
    "parse_point",
    "parse_polygon",
    "point_to_geojson",
    "polygon_to_geojson",
    "BoundingBox",
    "LineString",
    "Point",
    "Polygon",
]
