"""Planar geometry primitives used throughout the reproduction.

The paper works exclusively with point data (Section 4), queried with
rectangular spatio-temporal ranges, so the primitives here are points,
axis-aligned bounding boxes, and simple polygons (needed because
MongoDB's ``$geoWithin`` takes a GeoJSON Polygon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

__all__ = ["Point", "BoundingBox", "Polygon", "LineString"]


@dataclass(frozen=True, order=True)
class Point:
    """A longitude/latitude point (GeoJSON axis order: lon first)."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError("longitude %r out of range" % self.lon)
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError("latitude %r out of range" % self.lat)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle given by lower-left and upper-right."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon:
            raise ValueError(
                "min_lon %r > max_lon %r" % (self.min_lon, self.max_lon)
            )
        if self.min_lat > self.max_lat:
            raise ValueError(
                "min_lat %r > max_lat %r" % (self.min_lat, self.max_lat)
            )

    @property
    def width(self) -> float:
        """Longitudinal extent in degrees."""
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        """Latitudinal extent in degrees."""
        return self.max_lat - self.min_lat

    def area_deg2(self) -> float:
        """Area in squared degrees (used for relative comparisons)."""
        return self.width * self.height

    def contains(self, point: Point) -> bool:
        """Whether a point lies inside (borders inclusive)."""
        return (
            self.min_lon <= point.lon <= self.max_lon
            and self.min_lat <= point.lat <= self.max_lat
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether two boxes overlap (touching counts)."""
        return not (
            other.max_lon < self.min_lon
            or other.min_lon > self.max_lon
            or other.max_lat < self.min_lat
            or other.min_lat > self.max_lat
        )

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """Counter-clockwise corners starting at the lower-left."""
        return (
            Point(self.min_lon, self.min_lat),
            Point(self.max_lon, self.min_lat),
            Point(self.max_lon, self.max_lat),
            Point(self.min_lon, self.max_lat),
        )

    def to_polygon(self) -> "Polygon":
        """The box as a closed polygon ring."""
        ring = list(self.corners())
        ring.append(ring[0])
        return Polygon(tuple(ring))


@dataclass(frozen=True)
class Polygon:
    """A simple polygon as a closed exterior ring (no holes).

    Sufficient for ``$geoWithin: {$geometry: {type: "Polygon"}}`` over
    the rectangular query regions the paper uses, while still handling
    arbitrary simple rings via the even-odd rule.
    """

    ring: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.ring) < 4:
            raise ValueError("a polygon ring needs at least 4 points")
        if self.ring[0] != self.ring[-1]:
            raise ValueError("polygon ring must be closed")

    @property
    def bbox(self) -> BoundingBox:
        """The polygon's bounding box."""
        lons = [p.lon for p in self.ring]
        lats = [p.lat for p in self.ring]
        return BoundingBox(min(lons), min(lats), max(lons), max(lats))

    def contains(self, point: Point) -> bool:
        """Even-odd point-in-polygon test; boundary points count inside."""
        x, y = point.lon, point.lat
        inside = False
        n = len(self.ring) - 1
        for i in range(n):
            x1, y1 = self.ring[i].lon, self.ring[i].lat
            x2, y2 = self.ring[i + 1].lon, self.ring[i + 1].lat
            if _on_segment(x, y, x1, y1, x2, y2):
                return True
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def boundary(self) -> "LineString":
        """The exterior ring as a polyline."""
        return LineString(self.ring)

    def intersects_box(self, box: BoundingBox) -> bool:
        """Whether the polygon's area touches the rectangle.

        True when the boundary crosses the box, when the polygon lies
        inside the box, or when the box lies inside the polygon.
        """
        if self.boundary().intersects_box(box):
            return True
        if box.contains(self.ring[0]):
            return True  # polygon inside box
        return self.contains(box.corners()[0])  # box inside polygon

    def sample(self, max_step_deg: float) -> List[Point]:
        """Points covering the polygon (boundary + interior grid).

        Used to collect the curve cells a polygon-valued document
        occupies — the polygon analogue of LineString sampling.
        """
        points = self.boundary().sample(max_step_deg)
        bbox = self.bbox
        x = bbox.min_lon
        while x <= bbox.max_lon:
            y = bbox.min_lat
            while y <= bbox.max_lat:
                candidate = Point(
                    min(max(x, -180.0), 180.0), min(max(y, -90.0), 90.0)
                )
                if self.contains(candidate):
                    points.append(candidate)
                y += max_step_deg
            x += max_step_deg
        return points


@dataclass(frozen=True)
class LineString:
    """A polyline — the trajectory shape the paper leaves to future work.

    Supports the operations the extended store needs: bounding box,
    point sampling along the segments (for curve-cell coverage), and
    intersection with rectangles (for ``$geoIntersects``).
    """

    points: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a polyline needs at least 2 points")

    @property
    def bbox(self) -> BoundingBox:
        """The polyline's bounding box."""
        lons = [p.lon for p in self.points]
        lats = [p.lat for p in self.points]
        return BoundingBox(min(lons), min(lats), max(lons), max(lats))

    def segments(self) -> Iterable[Tuple[Point, Point]]:
        """Consecutive point pairs forming the segments."""
        return zip(self.points, self.points[1:])

    def sample(self, max_step_deg: float) -> List[Point]:
        """Points along the line no farther than ``max_step_deg`` apart
        (in Chebyshev distance) — used to collect the curve cells a
        trajectory passes through."""
        if max_step_deg <= 0:
            raise ValueError("max_step_deg must be positive")
        out: List[Point] = [self.points[0]]
        for a, b in self.segments():
            span = max(abs(b.lon - a.lon), abs(b.lat - a.lat))
            steps = max(1, int(math.ceil(span / max_step_deg)))
            for i in range(1, steps + 1):
                t = i / steps
                out.append(
                    Point(
                        a.lon + (b.lon - a.lon) * t,
                        a.lat + (b.lat - a.lat) * t,
                    )
                )
        return out

    def intersects_box(self, box: BoundingBox) -> bool:
        """Whether any part of the polyline crosses the rectangle."""
        for a, b in self.segments():
            if _segment_intersects_box(a, b, box):
                return True
        return False


def _segment_intersects_box(a: Point, b: Point, box: BoundingBox) -> bool:
    """Cohen-Sutherland style segment/rectangle intersection test."""
    if box.contains(a) or box.contains(b):
        return True
    # Reject quickly when both endpoints share an outside half-plane.
    if a.lon < box.min_lon and b.lon < box.min_lon:
        return False
    if a.lon > box.max_lon and b.lon > box.max_lon:
        return False
    if a.lat < box.min_lat and b.lat < box.min_lat:
        return False
    if a.lat > box.max_lat and b.lat > box.max_lat:
        return False
    # Check the segment against each rectangle edge.
    corners = box.corners()
    edges = list(zip(corners, corners[1:] + (corners[0],)))
    for c1, c2 in edges:
        if _segments_cross(a, b, c1, c2):
            return True
    return False


def _segments_cross(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether segments p1-p2 and p3-p4 intersect (inclusive)."""

    def orient(a: Point, b: Point, c: Point) -> float:
        return (b.lon - a.lon) * (c.lat - a.lat) - (b.lat - a.lat) * (
            c.lon - a.lon
        )

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    for d, p in ((d1, p1), (d2, p2), (d3, p3), (d4, p4)):
        if d == 0:
            seg = (p3, p4) if p in (p1, p2) else (p1, p2)
            if _on_segment(p.lon, p.lat, seg[0].lon, seg[0].lat,
                           seg[1].lon, seg[1].lat):
                return True
    return False


def _on_segment(
    px: float, py: float, x1: float, y1: float, x2: float, y2: float
) -> bool:
    """True when (px, py) lies on the segment (x1, y1)-(x2, y2)."""
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > 1e-12:
        return False
    if min(x1, x2) - 1e-12 <= px <= max(x1, x2) + 1e-12 and (
        min(y1, y2) - 1e-12 <= py <= max(y1, y2) + 1e-12
    ):
        return True
    return False
