"""ST-Hash — the related-work comparator the paper critiques.

Reference [10] (Guan et al., Geoinformatics 2017) extends GeoHash so
time joins the encoding: a document's key is a *string* whose prefix is
the year and whose remainder base32-encodes the interleaved bits of
(time-within-year, longitude, latitude), time taking the leading bit of
each triple.  A standard B-tree over the string supports point and
range search.

The paper's critique (Section 2.2): "the resulting encoding uses the
year as a prefix, which is not effective for certain query types. For
example, queries with high spatial selectivity but low temporal
selectivity cannot exploit the encoding" — a tiny box over a long time
window decomposes into a huge number of key ranges because time owns
the most significant interleaved bits.  The ablation bench
`bench_ablation_sthash.py` measures exactly that.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.query import SpatioTemporalQuery
from repro.geo.geojson import parse_point
from repro.sfc.geohash import GEOHASH_BASE32
from repro.sfc.morton3 import Morton3D, covering_ranges_3d

__all__ = ["STHashEncoder", "STHashApproach"]

_UTC = _dt.timezone.utc


@dataclass(frozen=True)
class STHashEncoder:
    """Encodes (time, lon, lat) to a sortable ST-Hash string.

    ``order`` bits per dimension (3·order bits total after the year
    prefix).  Strings of equal year sort exactly like the underlying
    Morton codes, so B-tree range scans work unchanged.
    """

    order: int = 10
    location_field: str = "location"
    date_field: str = "date"
    index_field: str = "stHash"

    def __post_init__(self) -> None:
        if not (1 <= self.order <= 21):
            raise ValueError("order must be in 1..21")

    @property
    def curve(self) -> Morton3D:
        """The 3D Morton curve behind the encoding."""
        return Morton3D(self.order)

    def _year_fraction(self, stamp: _dt.datetime) -> Tuple[int, float]:
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=_UTC)
        year = stamp.year
        start = _dt.datetime(year, 1, 1, tzinfo=_UTC)
        end = _dt.datetime(year + 1, 1, 1, tzinfo=_UTC)
        fraction = (stamp - start).total_seconds() / (
            end - start
        ).total_seconds()
        return year, min(max(fraction, 0.0), 1.0 - 1e-12)

    def _normalize(self, lon: float, lat: float) -> Tuple[float, float]:
        return (lon + 180.0) / 360.0, (lat + 90.0) / 180.0

    def _render(self, year: int, code: int) -> str:
        digits = -(-(3 * self.order) // 5)  # ceil bits/5
        chars = []
        for i in range(digits):
            shift = 5 * (digits - 1 - i)
            chars.append(GEOHASH_BASE32[(code >> shift) & 0x1F])
        return "%04d%s" % (year, "".join(chars))

    def encode(self, lon: float, lat: float, stamp: _dt.datetime) -> str:
        """The ST-Hash string of one spatio-temporal point."""
        year, fraction = self._year_fraction(stamp)
        nx, ny = self._normalize(lon, lat)
        code = self.curve.encode(fraction, nx, ny)
        return self._render(year, code)

    def encode_document(self, document: Mapping[str, Any]) -> str:
        """ST-Hash of a document's location and date."""
        point = parse_point(document[self.location_field])
        return self.encode(point.lon, point.lat, document[self.date_field])

    def enrich(self, document: Mapping[str, Any]) -> dict:
        """A copy of the document with the stHash field added."""
        enriched = dict(document)
        enriched[self.index_field] = self.encode_document(document)
        return enriched

    def query_ranges(
        self,
        query: SpatioTemporalQuery,
        max_ranges_per_year: Optional[int] = None,
    ) -> List[Tuple[str, str]]:
        """Closed string ranges covering a spatio-temporal box.

        One octree decomposition per calendar year the window touches
        (the year prefix fragments multi-year windows — part of the
        paper's critique).
        """
        nx0, ny0 = self._normalize(query.bbox.min_lon, query.bbox.min_lat)
        nx1, ny1 = self._normalize(query.bbox.max_lon, query.bbox.max_lat)
        out: List[Tuple[str, str]] = []
        year = query.time_from.year
        while year <= query.time_to.year:
            year_start = _dt.datetime(year, 1, 1, tzinfo=_UTC)
            year_end = _dt.datetime(year + 1, 1, 1, tzinfo=_UTC)
            window_from = max(query.time_from, year_start)
            window_to = min(query.time_to, year_end)
            _, f0 = self._year_fraction(window_from)
            _, f1 = self._year_fraction(
                min(window_to, year_end - _dt.timedelta(microseconds=1))
            )
            ranges = covering_ranges_3d(
                self.curve,
                (f0, nx0, ny0),
                (f1, nx1, ny1),
                max_ranges=max_ranges_per_year,
            )
            for r in ranges:
                out.append((self._render(year, r.lo), self._render(year, r.hi)))
            year += 1
        return out


@dataclass
class STHashApproach:
    """Deployment recipe mirroring :class:`HilbertApproach` for ST-Hash.

    Shard key and local index are ``(stHash, )`` — the single string
    field carries both dimensions, so no compound is needed.
    """

    encoder: STHashEncoder = field(default_factory=STHashEncoder)
    name: str = "sthash"
    max_ranges_per_year: Optional[int] = 512

    def shard_key_spec(self) -> List[Tuple[str, Any]]:
        """Shard on the single stHash string field."""
        return [(self.encoder.index_field, 1)]

    def index_specs(self) -> List[Tuple[List[Tuple[str, Any]], str]]:
        """No extra index: the shard-key index suffices."""
        return []

    def transform(self, document: Mapping[str, Any]) -> dict:
        """Add the stHash field at load time."""
        return self.encoder.enrich(document)

    def render_query(
        self, query: SpatioTemporalQuery
    ) -> Tuple[Dict[str, Any], float]:
        """Query with the $or of ST-Hash string ranges.

        ST-Hash range computation is never memoized, so the time is
        always the real computation.
        """
        started = time.perf_counter()
        ranges = self.encoder.query_ranges(
            query, max_ranges_per_year=self.max_ranges_per_year
        )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rendered: Dict[str, Any] = {
            query.location_field: query.spatial_predicate(),
            query.date_field: query.temporal_predicate(),
        }
        if ranges:
            rendered["$or"] = [
                {self.encoder.index_field: {"$gte": lo, "$lte": hi}}
                for lo, hi in ranges
            ]
        return rendered, elapsed_ms

    def zone_field(self) -> str:
        """Zones are defined on stHash."""
        return self.encoder.index_field
