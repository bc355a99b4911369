"""Space-filling curves and their rectangle coverings.

One table-driven :class:`QuadtreeCurve` addresses every 2D cell; its
three subclasses — :class:`HilbertCurve2D`, :class:`ZOrderCurve2D` and
:class:`GeoHashGrid` — are each a quadrant table plus a domain, and
:func:`covering_ranges` descends any of them.  The paper-named GeoHash
functions (bisection and base32) and the 3D Morton octree of the
ST-Hash ablation sit beside them.
"""

from repro.sfc.geohash import (
    GEOHASH_BASE32,
    GeoHashGrid,
    geohash_cell_bounds,
    geohash_decode,
    geohash_decode_int,
    geohash_encode,
    geohash_encode_int,
)
from repro.sfc.hilbert import HilbertCurve2D
from repro.sfc.morton3 import (
    Morton3D,
    covering_ranges_3d,
    morton3_deinterleave,
    morton3_interleave,
)
from repro.sfc.ranges import (
    CurveRange,
    QuadtreeCurve,
    RangeSet,
    covering_range_set,
    covering_ranges,
)
from repro.sfc.zorder import ZOrderCurve2D

__all__ = [
    "GEOHASH_BASE32",
    "GeoHashGrid",
    "geohash_cell_bounds",
    "geohash_decode",
    "geohash_decode_int",
    "geohash_encode",
    "geohash_encode_int",
    "HilbertCurve2D",
    "CurveRange",
    "QuadtreeCurve",
    "RangeSet",
    "covering_range_set",
    "covering_ranges",
    "ZOrderCurve2D",
    "Morton3D",
    "covering_ranges_3d",
    "morton3_deinterleave",
    "morton3_interleave",
]
