"""Two-dimensional Z-order (Morton) curve.

The Z-order curve interleaves the bits of the two cell coordinates.  It
underlies GeoHash (Section 2.1 of the paper) and serves as the
comparison curve in the ablation study: the paper chose Hilbert for its
better clustering properties (Moon et al., TKDE 2001), and the ablation
bench quantifies that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sfc.ranges import QuadtreeCurve

__all__ = ["ZOrderCurve2D"]


@dataclass(frozen=True)
class ZOrderCurve2D(QuadtreeCurve):
    """A Z-order curve bound to a rectangular domain.

    The same fields as :class:`repro.sfc.hilbert.HilbertCurve2D`, so the
    two curves are interchangeable in the encoder and the covering.
    """

    order: int
    min_x: float = -180.0
    min_y: float = -90.0
    max_x: float = 180.0
    max_y: float = 90.0

    #: One orientation state: x is the low bit of each pair.
    QUADRANTS = (((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),)
