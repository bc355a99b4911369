"""Two-dimensional Z-order (Morton) curve.

The Z-order curve interleaves the bits of the two cell coordinates.  It
underlies GeoHash (Section 2.1 of the paper) and serves as the
comparison curve in the ablation study: the paper chose Hilbert for its
better clustering properties (Moon et al., TKDE 2001), and the ablation
bench quantifies that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sfc.ranges import grid_cell

__all__ = ["morton_interleave", "morton_deinterleave", "ZOrderCurve2D"]


def _part1by1(v: int) -> int:
    """Spread the low 32 bits of ``v`` so a zero sits between each bit."""
    v &= 0xFFFFFFFF
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


def _compact1by1(v: int) -> int:
    """Inverse of :func:`_part1by1`."""
    v &= 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    v = (v | (v >> 16)) & 0x00000000FFFFFFFF
    return v


def morton_interleave(x: int, y: int) -> int:
    """Interleave ``x`` (even bit positions) and ``y`` (odd positions)."""
    if x < 0 or y < 0:
        raise ValueError("coordinates must be non-negative")
    return _part1by1(x) | (_part1by1(y) << 1)


def morton_deinterleave(d: int) -> Tuple[int, int]:
    """Recover ``(x, y)`` from a Morton code."""
    if d < 0:
        raise ValueError("Morton code must be non-negative")
    return _compact1by1(d), _compact1by1(d >> 1)


@dataclass(frozen=True)
class ZOrderCurve2D:
    """A Z-order curve bound to a rectangular domain.

    Mirrors :class:`repro.sfc.hilbert.HilbertCurve2D` so the two curves
    are interchangeable in the encoder and the range decomposer.
    """

    order: int
    min_x: float = -180.0
    min_y: float = -90.0
    max_x: float = 180.0
    max_y: float = 90.0

    #: One orientation state: x is the low bit of each pair.
    QUADRANTS = (((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),)

    def __post_init__(self) -> None:
        if self.order <= 0:
            raise ValueError("order must be positive, got %r" % self.order)
        if self.order > 32:
            raise ValueError("order above 32 bits per dimension unsupported")
        if self.min_x >= self.max_x or self.min_y >= self.max_y:
            raise ValueError(
                "degenerate domain [(%r, %r), (%r, %r)]"
                % (self.min_x, self.min_y, self.max_x, self.max_y)
            )

    @classmethod
    def global_curve(cls, order: int = 13) -> "ZOrderCurve2D":
        """Whole-globe Z-order curve (GeoHash-style domain)."""
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
        """Grid cell containing continuous point ``(x, y)`` (clamped)."""
        return grid_cell(
            x, y, self.min_x, self.min_y, self.max_x, self.max_y,
            1 << self.order,
        )

    def encode(self, x: float, y: float) -> int:
        """Morton code of the cell containing ``(x, y)``."""
        cx, cy = self.cell_of(x, y)
        return morton_interleave(cx, cy)

    def decode_cell(self, d: int) -> Tuple[int, int]:
        """Grid cell of a Morton code."""
        if not (0 <= d <= self.max_distance):
            raise ValueError(
                "distance %d outside the curve [0, %d]"
                % (d, self.max_distance)
            )
        return morton_deinterleave(d)

    def encode_cell(self, cx: int, cy: int) -> int:
        """Curve distance of grid cell ``(cx, cy)``."""
        n = self.cells_per_side
        if not (0 <= cx < n and 0 <= cy < n):
            raise ValueError(
                "cell (%d, %d) outside the %dx%d grid" % (cx, cy, n, n)
            )
        return morton_interleave(cx, cy)

    def cell_bounds(self, d: int) -> Tuple[float, float, float, float]:
        """Continuous bounds of a cell."""
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
        """Inclusive cell rectangle covering a box."""
        cx0, cy0 = self.cell_of(min_x, min_y)
        cx1, cy1 = self.cell_of(max_x, max_y)
        return cx0, cy0, cx1, cy1
