"""Spatio-temporal range queries and their MongoDB renderings.

A query is a spatial rectangle plus a closed time interval.  It renders
two ways, following Sections 4.1 and 4.2.1:

* **baseline form** — ``$geoWithin`` on the GeoJSON location plus
  ``$gte``/``$lte`` on the date;
* **Hilbert form** — the baseline predicates *plus* an ``$or`` whose
  clauses cover the curve cells intersecting the rectangle: one
  ``{$gte, $lte}`` clause per consecutive run and a single ``$in``
  clause collecting the isolated cells.

The time spent computing the covering (the paper's Table 8) is exposed
alongside the rendered query.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.encoder import SpatioTemporalEncoder
from repro.geo.geojson import polygon_to_geojson
from repro.geo.geometry import BoundingBox
from repro.sfc.ranges import RangeSet, covering_range_set

__all__ = ["SpatioTemporalQuery", "HilbertQueryRendering"]


@dataclass(frozen=True)
class HilbertQueryRendering:
    """A rendered Hilbert-form query plus covering metadata."""

    query: Dict[str, Any]
    range_set: RangeSet
    decomposition_ms: float


@dataclass(frozen=True)
class SpatioTemporalQuery:
    """A rectangle in space and a closed interval in time."""

    bbox: BoundingBox
    time_from: _dt.datetime
    time_to: _dt.datetime
    label: str = ""
    location_field: str = "location"
    date_field: str = "date"

    def __post_init__(self) -> None:
        if self.time_from > self.time_to:
            raise ValueError(
                "time_from %s after time_to %s"
                % (self.time_from, self.time_to)
            )

    @property
    def duration(self) -> _dt.timedelta:
        """Length of the temporal window."""
        return self.time_to - self.time_from

    def spatial_predicate(self) -> Dict[str, Any]:
        """The ``$geoWithin`` clause on the location field."""
        return {
            "$geoWithin": {
                "$geometry": polygon_to_geojson(self.bbox.to_polygon())
            }
        }

    def temporal_predicate(self) -> Dict[str, Any]:
        """The $gte/$lte clause on the date field."""
        return {"$gte": self.time_from, "$lte": self.time_to}

    def to_baseline_query(self) -> Dict[str, Any]:
        """The query document the bslST/bslTS approaches execute."""
        return {
            self.location_field: self.spatial_predicate(),
            self.date_field: self.temporal_predicate(),
        }

    def hilbert_ranges(
        self,
        encoder: SpatioTemporalEncoder,
        max_ranges: Optional[int] = None,
    ) -> Tuple[RangeSet, float]:
        """Covering cells for this query's rectangle, with timing (ms).

        The timing is Table 8's cell-identification time.
        """
        started = time.perf_counter()
        range_set = covering_range_set(
            encoder.curve,
            self.bbox.min_lon,
            self.bbox.min_lat,
            self.bbox.max_lon,
            self.bbox.max_lat,
            max_ranges=max_ranges,
        )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return range_set, elapsed_ms

    def to_hilbert_query(
        self,
        encoder: SpatioTemporalEncoder,
        max_ranges: Optional[int] = None,
    ) -> HilbertQueryRendering:
        """The query document the hil/hil* approaches execute.

        Matches the paper's example: ``$geoWithin`` + date range + an
        ``$or`` of hilbertIndex range/``$in`` clauses.
        ``decomposition_ms`` is :meth:`hilbert_ranges`' timing.
        """
        range_set, elapsed_ms = self.hilbert_ranges(encoder, max_ranges)
        clauses: List[Dict[str, Any]] = [
            {encoder.index_field: {"$gte": r.lo, "$lte": r.hi}}
            for r in range_set.ranges
        ]
        if range_set.singles:
            clauses.append(
                {encoder.index_field: {"$in": list(range_set.singles)}}
            )
        query: Dict[str, Any] = {
            self.location_field: self.spatial_predicate(),
            self.date_field: self.temporal_predicate(),
        }
        if clauses:
            query["$or"] = clauses
        return HilbertQueryRendering(
            query=query, range_set=range_set, decomposition_ms=elapsed_ms
        )
