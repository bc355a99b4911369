"""Two-dimensional Hilbert space-filling curve.

The paper maps each (longitude, latitude) pair to a one-dimensional
``hilbertIndex`` using a Hilbert curve with 13 bits per dimension.  The
curve either covers the whole globe (approach *hil*) or is restricted to
the dataset's bounding box (approach *hil\\**).

:class:`HilbertCurve2D` is the Hilbert quadrant table bound to such a
domain; its cell addressing is :class:`~repro.sfc.ranges.QuadtreeCurve`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sfc.ranges import QuadtreeCurve

__all__ = ["HilbertCurve2D"]


@dataclass(frozen=True)
class HilbertCurve2D(QuadtreeCurve):
    """A Hilbert curve bound to a rectangular geographic domain.

    Parameters
    ----------
    order:
        Bits per dimension, 1 to 32.  The paper uses 13 (26-bit
        combined keys, matching MongoDB's default GeoHash precision).
    min_x, min_y, max_x, max_y:
        The domain covered by the curve.  ``hil`` uses the whole globe
        (-180..180, -90..90); ``hil*`` uses the dataset bounding box.
    """

    order: int
    min_x: float = -180.0
    min_y: float = -90.0
    max_x: float = 180.0
    max_y: float = 90.0

    #: Child quadrants per orientation state (see
    #: :data:`repro.sfc.ranges.Quadrants`).  State 0 visits
    #: (0,0),(0,1),(1,1),(1,0); the other three are its transpose, its
    #: half-turn and its anti-transpose.
    QUADRANTS = (
        ((0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 0, 2)),
        ((0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 3)),
        ((1, 1, 3), (0, 1, 2), (0, 0, 2), (1, 0, 0)),
        ((1, 1, 2), (1, 0, 3), (0, 0, 3), (0, 1, 1)),
    )
