"""Two-dimensional Hilbert space-filling curve.

The paper maps each (longitude, latitude) pair to a one-dimensional
``hilbertIndex`` using a Hilbert curve with 13 bits per dimension.  The
curve either covers the whole globe (approach *hil*) or is restricted to
the dataset's bounding box (approach *hil\\**).

This module implements the classic iterative rotate/flip algorithm for
converting between (x, y) cell coordinates and the distance ``d`` along
the curve, plus :class:`HilbertCurve2D`, which binds the curve to a
geographic domain so continuous coordinates can be encoded directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.sfc.ranges import grid_cell

__all__ = ["hilbert_xy_to_d", "hilbert_d_to_xy", "HilbertCurve2D"]


def _rotate(n: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip a quadrant so the curve orientation is preserved."""
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


def hilbert_xy_to_d(order: int, x: int, y: int) -> int:
    """Map cell coordinates ``(x, y)`` to the Hilbert distance.

    ``order`` is the number of bits per dimension; the grid is
    ``2**order`` cells on each side and distances range over
    ``[0, 4**order)``.
    """
    if order <= 0:
        raise ValueError("order must be positive, got %r" % order)
    n = 1 << order
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(
            "cell (%d, %d) outside the %dx%d grid" % (x, y, n, n)
        )
    d = 0
    s = n >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s >>= 1
    return d


def hilbert_d_to_xy(order: int, d: int) -> Tuple[int, int]:
    """Map a Hilbert distance back to cell coordinates ``(x, y)``."""
    if order <= 0:
        raise ValueError("order must be positive, got %r" % order)
    n = 1 << order
    if not (0 <= d < n * n):
        raise ValueError("distance %d outside the curve [0, %d)" % (d, n * n))
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        if rx == 1:
            x += s
        if ry == 1:
            y += s
        t >>= 2
        s <<= 1
    return x, y


@dataclass(frozen=True)
class HilbertCurve2D:
    """A Hilbert curve bound to a rectangular geographic domain.

    Parameters
    ----------
    order:
        Bits per dimension.  The paper uses 13 (26-bit combined keys,
        matching MongoDB's default GeoHash precision).
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

    def __post_init__(self) -> None:
        if self.order <= 0:
            raise ValueError("order must be positive, got %r" % self.order)
        if self.min_x >= self.max_x or self.min_y >= self.max_y:
            raise ValueError(
                "degenerate domain [(%r, %r), (%r, %r)]"
                % (self.min_x, self.min_y, self.max_x, self.max_y)
            )

    @classmethod
    def global_curve(cls, order: int = 13) -> "HilbertCurve2D":
        """The whole-globe curve used by the paper's *hil* approach."""
        return cls(order=order)

    @property
    def cells_per_side(self) -> int:
        """Number of grid cells along each dimension."""
        return 1 << self.order

    @property
    def max_distance(self) -> int:
        """Largest valid curve distance (inclusive)."""
        return (1 << (2 * self.order)) - 1

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Grid cell containing continuous point ``(x, y)``.

        Points outside the domain are clamped to the border cells, which
        matches how a fixed-extent curve must treat stray coordinates.
        """
        return grid_cell(
            x, y, self.min_x, self.min_y, self.max_x, self.max_y,
            1 << self.order,
        )

    def encode(self, x: float, y: float) -> int:
        """Hilbert distance of the cell containing ``(x, y)``.

        For geographic use, ``x`` is longitude and ``y`` latitude.
        """
        cx, cy = self.cell_of(x, y)
        return hilbert_xy_to_d(self.order, cx, cy)

    def decode_cell(self, d: int) -> Tuple[int, int]:
        """Grid cell of curve distance ``d``."""
        return hilbert_d_to_xy(self.order, d)

    def encode_cell(self, cx: int, cy: int) -> int:
        """Curve distance of grid cell ``(cx, cy)``."""
        return hilbert_xy_to_d(self.order, cx, cy)

    def cell_bounds(self, d: int) -> Tuple[float, float, float, float]:
        """Continuous bounds ``(min_x, min_y, max_x, max_y)`` of a cell."""
        cx, cy = self.decode_cell(d)
        n = self.cells_per_side
        wx = (self.max_x - self.min_x) / n
        wy = (self.max_y - self.min_y) / n
        return (
            self.min_x + cx * wx,
            self.min_y + cy * wy,
            self.min_x + (cx + 1) * wx,
            self.min_y + (cy + 1) * wy,
        )

    def cell_range_for_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> Tuple[int, int, int, int]:
        """Grid-cell rectangle ``(cx0, cy0, cx1, cy1)`` covering a box.

        Bounds are inclusive on both ends, clamped to the domain.
        """
        cx0, cy0 = self.cell_of(min_x, min_y)
        cx1, cy1 = self.cell_of(max_x, max_y)
        return cx0, cy0, cx1, cy1

    def walk(self) -> Iterator[Tuple[int, int]]:
        """Yield cells in curve order — used to draw Fig. 1."""
        for d in range(self.max_distance + 1):
            yield self.decode_cell(d)

    def distances_for_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> List[int]:
        """All curve distances whose cells intersect the box (sorted)."""
        cx0, cy0, cx1, cy1 = self.cell_range_for_box(
            min_x, min_y, max_x, max_y
        )
        out = [
            hilbert_xy_to_d(self.order, cx, cy)
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
        ]
        out.sort()
        return out
