"""Collection statistics for cost-based planning (the ANALYZE pass).

The cost-based chooser (:mod:`repro.core.chooser`) needs three numbers
per query: how many documents fall in the temporal window, how many
fall in the spatial rectangle, and how many Hilbert cells the
rectangle's covering touches.  This module builds the catalog those
estimates come from:

* :class:`FieldHistogram` — an equi-depth histogram over a scalar
  field (the time axis).  Equi-depth rather than equi-width because
  GPS fleets burst: rush hour packs ten buckets where night holds one.
* :class:`CellDensitySketch` — document counts per *coarse* Hilbert
  cell (order 10 by default — far coarser than the index curves, and
  sparse: only occupied cells are stored).  Spatial selectivity of a
  rectangle is the overlap-weighted sum of intersecting cells; cell
  selectivity (what a curve covering actually scans, false positives
  included) is the unweighted sum.
* :class:`CollectionStats` — the per-collection roll-up: doc counts
  per shard and per chunk, the two sketches, and the cluster
  ``metadata_version`` observed *before* any data was scanned.

The service keeps one :class:`CollectionStats` per collection in a
:class:`~repro.cache.StampedLRUCache` stamped with the
``metadata_version`` it was built under, and reads it back only under
the live version.  That stamp is the catalog's one freshness rule: a
split, migration, zone change or DDL retires the entry, a memtable
flush or compaction (which changes no count, histogram or sketch) does
not, and re-ANALYZE is explicit.  The version is captured before the
scan so a split sliding into the ANALYZE window can never be stored
under the fresh version's stamp (the CC002 discipline).
"""

from __future__ import annotations

import bisect
import datetime as _dt
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.geo.geometry import BoundingBox
from repro.sfc.hilbert import HilbertCurve2D

__all__ = [
    "FieldHistogram",
    "CellDensitySketch",
    "CollectionStats",
    "analyze_collection",
]

_EPOCH = _dt.datetime(1970, 1, 1)


def _to_ordinal(value: Any) -> Optional[float]:
    """A sortable float for histogram arithmetic, or None."""
    if isinstance(value, _dt.datetime):
        ref = _EPOCH
        if value.tzinfo is not None:
            ref = _EPOCH.replace(tzinfo=_dt.timezone.utc)
        return (value - ref).total_seconds()
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


@dataclass(frozen=True)
class FieldHistogram:
    """Equi-depth histogram over one scalar field.

    ``bounds`` holds ``buckets + 1`` boundaries; bucket ``i`` spans
    ``[bounds[i], bounds[i + 1]]`` and holds ``total / buckets``
    documents by construction.  Selectivity of a range interpolates
    linearly inside partially covered edge buckets.
    """

    field: str
    bounds: Tuple[float, ...]
    total: int

    @classmethod
    def build(
        cls, field_name: str, values: Sequence[Any], buckets: int = 32
    ) -> Optional["FieldHistogram"]:
        """Histogram from raw field values (non-scalars dropped)."""
        ordinals = sorted(
            o for v in values if (o := _to_ordinal(v)) is not None
        )
        if not ordinals:
            return None
        buckets = max(1, min(buckets, len(ordinals)))
        bounds = [ordinals[0]]
        for i in range(1, buckets):
            bounds.append(ordinals[(i * len(ordinals)) // buckets])
        bounds.append(ordinals[-1])
        return cls(
            field=field_name, bounds=tuple(bounds), total=len(ordinals)
        )

    @property
    def buckets(self) -> int:
        """Number of equi-depth buckets."""
        return len(self.bounds) - 1

    def selectivity(self, lo: Any, hi: Any) -> float:
        """Estimated fraction of documents with value in ``[lo, hi]``."""
        olo = _to_ordinal(lo)
        ohi = _to_ordinal(hi)
        if olo is None or ohi is None or olo > ohi:
            return 0.0
        return max(
            0.0, min(1.0, self._cdf(ohi) - self._cdf(olo))
        )

    def _cdf(self, x: float) -> float:
        """Fraction of documents with value <= ``x``."""
        if x <= self.bounds[0]:
            return 0.0
        if x >= self.bounds[-1]:
            return 1.0
        idx = bisect.bisect_right(self.bounds, x) - 1
        idx = min(idx, self.buckets - 1)
        lo, hi = self.bounds[idx], self.bounds[idx + 1]
        within = 1.0 if hi <= lo else (x - lo) / (hi - lo)
        return (idx + within) / self.buckets

    def as_dict(self) -> dict:
        """JSON-friendly form for catalog dumps."""
        return {
            "field": self.field,
            "buckets": self.buckets,
            "bounds": list(self.bounds),
            "total": self.total,
        }


@dataclass(frozen=True)
class CellDensitySketch:
    """Document counts per coarse Hilbert cell.

    The sketch's curve is coarser than the index curves (order 10 vs
    13+) and stored sparsely — occupied cells only — so its size is
    bounded by the data, not the grid.  It tells dense downtown from
    empty ocean, which is all the chooser needs.
    """

    order: int
    counts: Mapping[int, int]
    total: int
    domain: Tuple[float, float, float, float] = (
        -180.0,
        -90.0,
        180.0,
        90.0,
    )

    @classmethod
    def build(
        cls,
        points: Sequence[Tuple[float, float]],
        order: int = 10,
        curve: Optional[HilbertCurve2D] = None,
    ) -> Optional["CellDensitySketch"]:
        """Sketch from ``(lon, lat)`` samples."""
        if not points:
            return None
        if curve is None:
            curve = HilbertCurve2D.global_curve(order=order)
        counts: Dict[int, int] = {}
        for lon, lat in points:
            d = curve.encode(lon, lat)
            counts[d] = counts.get(d, 0) + 1
        return cls(
            order=curve.order,
            counts=counts,
            total=len(points),
            domain=(curve.min_x, curve.min_y, curve.max_x, curve.max_y),
        )

    def _curve(self) -> HilbertCurve2D:
        min_x, min_y, max_x, max_y = self.domain
        return HilbertCurve2D(
            order=self.order,
            min_x=min_x,
            min_y=min_y,
            max_x=max_x,
            max_y=max_y,
        )

    def _intersecting(
        self, bbox: BoundingBox
    ) -> List[Tuple[int, float]]:
        """``(distance, overlap_fraction)`` per intersecting cell."""
        curve = self._curve()
        cx0, cy0, cx1, cy1 = curve.cell_range_for_box(
            bbox.min_lon, bbox.min_lat, bbox.max_lon, bbox.max_lat
        )
        out: List[Tuple[int, float]] = []
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                d = curve.encode_cell(cx, cy)
                if d not in self.counts:
                    continue
                bx0, by0, bx1, by1 = curve.cell_bounds(d)
                ix = max(
                    0.0,
                    min(bx1, bbox.max_lon) - max(bx0, bbox.min_lon),
                )
                iy = max(
                    0.0,
                    min(by1, bbox.max_lat) - max(by0, bbox.min_lat),
                )
                area = (bx1 - bx0) * (by1 - by0)
                frac = (ix * iy) / area if area > 0 else 0.0
                out.append((d, frac))
        return out

    def snap(self, bbox: BoundingBox, order: int) -> BoundingBox:
        """The rectangle expanded outward to an order-``order`` grid.

        An index that prunes space at cell granularity (geohash or
        Hilbert) examines every document whose cell *touches* the
        query box — i.e. the documents inside the box snapped to that
        index's grid.  Snapping before estimating lets the chooser
        rank access paths of different granularities.
        """
        min_x, min_y, max_x, max_y = self.domain
        n = 1 << order
        wx = (max_x - min_x) / n
        wy = (max_y - min_y) / n
        lo_x = min_x + math.floor((bbox.min_lon - min_x) / wx) * wx
        lo_y = min_y + math.floor((bbox.min_lat - min_y) / wy) * wy
        hi_x = min_x + math.ceil((bbox.max_lon - min_x) / wx) * wx
        hi_y = min_y + math.ceil((bbox.max_lat - min_y) / wy) * wy
        return BoundingBox(
            min_lon=max(min_x, lo_x),
            min_lat=max(min_y, lo_y),
            max_lon=min(max_x, max(hi_x, lo_x + wx)),
            max_lat=min(max_y, max(hi_y, lo_y + wy)),
        )

    def selectivity(
        self, bbox: BoundingBox, snap_order: Optional[int] = None
    ) -> float:
        """Estimated fraction of documents inside the rectangle.

        Partially covered cells contribute in proportion to the
        overlapped area (uniformity within a coarse cell).  With
        ``snap_order`` the box is first expanded to that grid, giving
        the candidate-set size of a cell-granular index rather than
        the true spatial selectivity.
        """
        if self.total == 0:
            return 0.0
        if snap_order is not None:
            bbox = self.snap(bbox, snap_order)
        hit = sum(
            self.counts[d] * frac for d, frac in self._intersecting(bbox)
        )
        return max(0.0, min(1.0, hit / self.total))

    def cell_selectivity(self, bbox: BoundingBox) -> float:
        """Fraction of documents in cells *touching* the rectangle.

        This is what a curve covering scans — whole cells, false
        positives included — so it upper-bounds :meth:`selectivity`
        and models the hil approach's extra key traffic.
        """
        if self.total == 0:
            return 0.0
        hit = sum(self.counts[d] for d, _ in self._intersecting(bbox))
        return max(0.0, min(1.0, hit / self.total))

    def as_dict(self) -> dict:
        """JSON-friendly form for catalog dumps."""
        return {
            "order": self.order,
            "cells": len(self.counts),
            "total": self.total,
            "domain": list(self.domain),
        }


@dataclass(frozen=True)
class CollectionStats:
    """One collection's ANALYZE output, stamped with the version
    current *before* the scan started."""

    collection: str
    metadata_version: int
    total_docs: int
    shard_docs: Mapping[str, int]
    chunk_docs: Tuple[Tuple[str, int], ...]
    time_histogram: Optional[FieldHistogram] = None
    cell_sketch: Optional[CellDensitySketch] = None

    def time_selectivity(self, lo: Any, hi: Any) -> Optional[float]:
        """Fraction of docs in the temporal window, if known."""
        if self.time_histogram is None:
            return None
        return self.time_histogram.selectivity(lo, hi)

    def space_selectivity(
        self, bbox: BoundingBox, snap_order: Optional[int] = None
    ) -> Optional[float]:
        """Fraction of docs in the rectangle, if known.

        ``snap_order`` expands the box to that cell grid first — the
        candidate-set size seen by a cell-granular index.
        """
        if self.cell_sketch is None:
            return None
        return self.cell_sketch.selectivity(bbox, snap_order=snap_order)

    def cell_selectivity(self, bbox: BoundingBox) -> Optional[float]:
        """Fraction of docs in curve cells touching the rectangle."""
        if self.cell_sketch is None:
            return None
        return self.cell_sketch.cell_selectivity(bbox)

    def as_dict(self) -> dict:
        """JSON-friendly catalog dump (CLI / bench output)."""
        return {
            "collection": self.collection,
            "metadataVersion": self.metadata_version,
            "totalDocs": self.total_docs,
            "shardDocs": dict(self.shard_docs),
            "chunkDocs": [list(pair) for pair in self.chunk_docs],
            "timeHistogram": (
                self.time_histogram.as_dict()
                if self.time_histogram
                else None
            ),
            "cellSketch": (
                self.cell_sketch.as_dict() if self.cell_sketch else None
            ),
        }


def _point_of(value: Any) -> Optional[Tuple[float, float]]:
    """``(lon, lat)`` from a GeoJSON Point, or None."""
    if not isinstance(value, Mapping):
        return None
    if value.get("type") != "Point":
        return None
    coords = value.get("coordinates")
    if (
        isinstance(coords, (list, tuple))
        and len(coords) >= 2
        and all(isinstance(c, (int, float)) for c in coords[:2])
    ):
        return float(coords[0]), float(coords[1])
    return None


def analyze_collection(
    cluster: Any,
    collection: str,
    *,
    date_field: str = "date",
    location_field: str = "location",
    histogram_buckets: int = 32,
    sketch_order: int = 10,
) -> CollectionStats:
    """Build a :class:`CollectionStats` by scanning every shard.

    The ``metadata_version`` stamp is read before the chunk map or any
    document, so a concurrent split lands the entry under the *old*
    version and the next catalog read rejects it as stale (never a
    freshly stamped stale catalog).  Callers wanting a fully
    consistent scan run this under the service's exclusive section.
    """
    version = cluster.metadata_version
    metadata = cluster.catalog.get(collection)
    chunk_docs = tuple(
        (chunk.shard_id, chunk.doc_count) for chunk in metadata.chunks
    )
    shard_docs: Dict[str, int] = {}
    times: List[Any] = []
    points: List[Tuple[float, float]] = []
    total = 0
    for shard_id in sorted(cluster.shards):
        col = cluster.shards[shard_id].collection(collection)
        n = 0
        for doc in col.all_documents():
            n += 1
            times.append(doc.get(date_field))
            point = _point_of(doc.get(location_field))
            if point is not None:
                points.append(point)
        shard_docs[shard_id] = n
        total += n
    return CollectionStats(
        collection=collection,
        metadata_version=version,
        total_docs=total,
        shard_docs=shard_docs,
        chunk_docs=chunk_docs,
        time_histogram=FieldHistogram.build(
            date_field, times, buckets=histogram_buckets
        ),
        cell_sketch=CellDensitySketch.build(points, order=sketch_order),
    )
