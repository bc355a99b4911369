"""Spatio-temporal document enrichment: the ``hilbertIndex`` field.

Section 4.2.1 of the paper: for each document, the 1D Hilbert value of
its (longitude, latitude) is computed and stored as a new long-typed
field, which is then indexed and used for sharding.  The encoder
supports the paper's two curve domains —

* **hil** — the curve covers the whole globe;
* **hil\\*** — the curve covers only the dataset's bounding box,
  yielding higher effective precision from the same bit budget —

and, for the ablation study, a Z-order curve drop-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.geo.geojson import parse_point
from repro.geo.geometry import BoundingBox
from repro.sfc.hilbert import HilbertCurve2D
from repro.sfc.ranges import QuadtreeCurve
from repro.sfc.zorder import ZOrderCurve2D

__all__ = ["SpatioTemporalEncoder", "DEFAULT_HILBERT_ORDER"]

#: The paper uses a 13-bit-per-dimension Hilbert curve (26-bit keys,
#: matching MongoDB's default GeoHash precision).
DEFAULT_HILBERT_ORDER = 13


@dataclass(frozen=True)
class SpatioTemporalEncoder:
    """Computes 1D curve values for documents.

    Parameters
    ----------
    curve:
        A :class:`~repro.sfc.ranges.QuadtreeCurve` (Hilbert or
        Z-order).  Use the constructors below rather than building one
        by hand.
    location_field / index_field:
        Document fields read and written.  Defaults match the paper's
        document examples (``location`` GeoJSON point in,
        ``hilbertIndex`` long out).
    """

    curve: QuadtreeCurve
    location_field: str = "location"
    index_field: str = "hilbertIndex"

    @classmethod
    def hilbert_global(
        cls, order: int = DEFAULT_HILBERT_ORDER, **kwargs: Any
    ) -> "SpatioTemporalEncoder":
        """The paper's *hil* encoder: Hilbert over the whole globe."""
        return cls(curve=HilbertCurve2D.global_curve(order), **kwargs)

    @classmethod
    def hilbert_for_bbox(
        cls,
        bbox: BoundingBox,
        order: int = DEFAULT_HILBERT_ORDER,
        **kwargs: Any,
    ) -> "SpatioTemporalEncoder":
        """The paper's *hil\\** encoder: Hilbert over the dataset MBR."""
        curve = HilbertCurve2D(
            order=order,
            min_x=bbox.min_lon,
            min_y=bbox.min_lat,
            max_x=bbox.max_lon,
            max_y=bbox.max_lat,
        )
        return cls(curve=curve, **kwargs)

    @classmethod
    def zorder_global(
        cls, order: int = DEFAULT_HILBERT_ORDER, **kwargs: Any
    ) -> "SpatioTemporalEncoder":
        """Ablation encoder: Z-order instead of Hilbert."""
        return cls(curve=ZOrderCurve2D.global_curve(order), **kwargs)

    def encode_lonlat(self, lon: float, lat: float) -> int:
        """1D curve value of a coordinate pair."""
        return self.curve.encode(lon, lat)

    def encode_document(self, document: Mapping[str, Any]) -> int:
        """1D curve value of a document's location field."""
        point = parse_point(document[self.location_field])
        return self.curve.encode(point.lon, point.lat)

    def enrich(self, document: Mapping[str, Any]) -> dict:
        """A copy of the document with the curve-value field added."""
        enriched = dict(document)
        enriched[self.index_field] = self.encode_document(document)
        return enriched
