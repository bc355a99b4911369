"""GeoJSON parsing and construction.

MongoDB stores spatial values either as GeoJSON objects or as legacy
coordinate pairs (two-element arrays or embedded documents); both forms
appear in the paper's document examples and both are accepted here.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.geo.geometry import BoundingBox, LineString, Point, Polygon

__all__ = [
    "GeoJSONError",
    "point_to_geojson",
    "polygon_to_geojson",
    "linestring_to_geojson",
    "parse_point",
    "parse_polygon",
    "parse_linestring",
    "parse_geometry",
]


class GeoJSONError(ValueError):
    """Raised when a value cannot be interpreted as the expected shape."""


def point_to_geojson(point: Point) -> dict:
    """Render a point as a GeoJSON mapping (the paper's document form)."""
    return {"type": "Point", "coordinates": [point.lon, point.lat]}


def polygon_to_geojson(polygon: Polygon) -> dict:
    """Render a polygon as a GeoJSON mapping with one exterior ring."""
    return {
        "type": "Polygon",
        "coordinates": [[[p.lon, p.lat] for p in polygon.ring]],
    }


def parse_point(value: Any) -> Point:
    """Interpret a document field value as a point.

    Accepts GeoJSON Point mappings, legacy two-element arrays
    ``[lon, lat]``, and legacy embedded documents with ``lon``/``lat``
    (or ``lng``/``longitude``/``latitude``) members.
    """
    if isinstance(value, Point):
        return value
    if isinstance(value, Mapping):
        if value.get("type") == "Point":
            coords = value.get("coordinates")
            if (
                not isinstance(coords, Sequence)
                or isinstance(coords, (str, bytes))
                or len(coords) != 2
            ):
                raise GeoJSONError(
                    "GeoJSON Point needs [lon, lat] coordinates, got %r"
                    % (coords,)
                )
            return Point(float(coords[0]), float(coords[1]))
        lon = _first(value, ("lon", "lng", "longitude", "x"))
        lat = _first(value, ("lat", "latitude", "y"))
        if lon is not None and lat is not None:
            return Point(float(lon), float(lat))
        raise GeoJSONError("mapping %r is not a point" % (value,))
    if (
        isinstance(value, Sequence)
        and not isinstance(value, (str, bytes))
        and len(value) == 2
    ):
        return Point(float(value[0]), float(value[1]))
    raise GeoJSONError("value %r is not a point" % (value,))


def parse_polygon(value: Any) -> Polygon:
    """Interpret a GeoJSON Polygon mapping (exterior ring only)."""
    if isinstance(value, Polygon):
        return value
    if isinstance(value, BoundingBox):
        return value.to_polygon()
    if not isinstance(value, Mapping) or value.get("type") != "Polygon":
        raise GeoJSONError("value %r is not a GeoJSON Polygon" % (value,))
    coords = value.get("coordinates")
    if not isinstance(coords, Sequence) or not coords:
        raise GeoJSONError("Polygon needs a coordinates array")
    exterior = coords[0]
    try:
        ring = tuple(Point(float(c[0]), float(c[1])) for c in exterior)
    except (TypeError, IndexError) as exc:
        raise GeoJSONError("malformed polygon ring %r" % (exterior,)) from exc
    return Polygon(ring)


def linestring_to_geojson(line: LineString) -> dict:
    """Render a polyline as a GeoJSON LineString mapping."""
    return {
        "type": "LineString",
        "coordinates": [[p.lon, p.lat] for p in line.points],
    }


def parse_linestring(value: Any) -> LineString:
    """Interpret a GeoJSON LineString mapping."""
    if isinstance(value, LineString):
        return value
    if not isinstance(value, Mapping) or value.get("type") != "LineString":
        raise GeoJSONError("value %r is not a GeoJSON LineString" % (value,))
    coords = value.get("coordinates")
    if not isinstance(coords, Sequence) or len(coords) < 2:
        raise GeoJSONError("LineString needs at least 2 coordinates")
    try:
        points = tuple(Point(float(c[0]), float(c[1])) for c in coords)
    except (TypeError, IndexError) as exc:
        raise GeoJSONError("malformed LineString %r" % (coords,)) from exc
    return LineString(points)


def parse_geometry(value: Any):
    """Parse a Point, LineString, or Polygon, dispatching on ``type``."""
    if isinstance(value, (Point, Polygon, LineString)):
        return value
    if isinstance(value, BoundingBox):
        return value.to_polygon()
    if isinstance(value, Mapping):
        kind = value.get("type")
        if kind == "Point":
            return parse_point(value)
        if kind == "Polygon":
            return parse_polygon(value)
        if kind == "LineString":
            return parse_linestring(value)
        raise GeoJSONError("unsupported geometry type %r" % kind)
    return parse_point(value)


def _first(mapping: Mapping, keys: Sequence[str]):
    """First present key's value among ``keys``, else None."""
    for key in keys:
        if key in mapping:
            return mapping[key]
    return None
