"""Three-dimensional Z-order (Morton) curve and octree range covering.

Support for the ST-Hash comparator (Guan et al. 2017, reference [10]
of the paper): ST-Hash interleaves *time* with longitude and latitude
into one string key.  The 3D Morton curve provides the interleaving;
:func:`covering_ranges_3d` decomposes a (time × lon × lat) box into 1D
ranges by octree recursion — the 3D analogue of
:func:`repro.sfc.ranges.covering_ranges`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sfc.ranges import CurveRange, _coarsen

__all__ = [
    "morton3_interleave",
    "morton3_deinterleave",
    "Morton3D",
    "covering_ranges_3d",
]


def _part1by2(v: int) -> int:
    """Spread the low 21 bits of ``v`` with two zero bits in between."""
    v &= 0x1FFFFF
    v = (v | (v << 32)) & 0x1F00000000FFFF
    v = (v | (v << 16)) & 0x1F0000FF0000FF
    v = (v | (v << 8)) & 0x100F00F00F00F00F
    v = (v | (v << 4)) & 0x10C30C30C30C30C3
    v = (v | (v << 2)) & 0x1249249249249249
    return v


def _compact1by2(v: int) -> int:
    v &= 0x1249249249249249
    v = (v | (v >> 2)) & 0x10C30C30C30C30C3
    v = (v | (v >> 4)) & 0x100F00F00F00F00F
    v = (v | (v >> 8)) & 0x1F0000FF0000FF
    v = (v | (v >> 16)) & 0x1F00000000FFFF
    v = (v | (v >> 32)) & 0x1FFFFF
    return v


def morton3_interleave(a: int, b: int, c: int) -> int:
    """Interleave three coordinates; ``a`` takes the highest bit of
    each triple (ST-Hash puts time first)."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("coordinates must be non-negative")
    return (
        (_part1by2(a) << 2) | (_part1by2(b) << 1) | _part1by2(c)
    )


def morton3_deinterleave(d: int) -> Tuple[int, int, int]:
    """Recover the three coordinates from a Morton code."""
    if d < 0:
        raise ValueError("Morton code must be non-negative")
    return (
        _compact1by2(d >> 2),
        _compact1by2(d >> 1),
        _compact1by2(d),
    )


@dataclass(frozen=True)
class Morton3D:
    """A 3D Morton curve over a normalized unit cube.

    ``order`` is bits per dimension (max 21 for 63-bit codes).
    Continuous coordinates are supplied pre-normalized to [0, 1].
    """

    order: int

    def __post_init__(self) -> None:
        if not (1 <= self.order <= 21):
            raise ValueError("order must be in 1..21, got %r" % self.order)

    @property
    def cells_per_side(self) -> int:
        """Number of grid cells along each dimension."""
        return 1 << self.order

    @property
    def max_distance(self) -> int:
        """Largest valid Morton code (inclusive)."""
        return (1 << (3 * self.order)) - 1

    def cell_of(self, a: float, b: float, c: float) -> Tuple[int, int, int]:
        """Grid cell of a normalized (a, b, c) point, clamped."""
        n = self.cells_per_side
        return tuple(
            min(n - 1, max(0, int(x * n))) for x in (a, b, c)
        )  # type: ignore[return-value]

    def encode(self, a: float, b: float, c: float) -> int:
        """Morton code of the cell containing a normalized point."""
        return morton3_interleave(*self.cell_of(a, b, c))

    def encode_cell(self, ca: int, cb: int, cc: int) -> int:
        """Morton code of a grid cell."""
        n = self.cells_per_side
        for v in (ca, cb, cc):
            if not (0 <= v < n):
                raise ValueError("cell out of grid")
        return morton3_interleave(ca, cb, cc)

    def decode_cell(self, d: int) -> Tuple[int, int, int]:
        """Grid cell of a Morton code."""
        if not (0 <= d <= self.max_distance):
            raise ValueError("distance outside the curve")
        return morton3_deinterleave(d)


def covering_ranges_3d(
    curve: Morton3D,
    lo: Tuple[float, float, float],
    hi: Tuple[float, float, float],
    max_ranges: int | None = None,
) -> List[CurveRange]:
    """Sorted, merged Morton ranges covering a normalized box.

    Octree recursion: a sub-curve ``[d0, d0 + 8**m)`` occupies an
    axis-aligned cube of side ``2**m``; cubes fully inside the box emit
    one range, boundary cubes recurse.  Children are pushed in reverse
    curve order, so ranges are emitted in order and merge as they come;
    ``max_ranges`` coarsens (and is validated) exactly as the 2D
    covering's is.
    """
    for l, h in zip(lo, hi):
        if l > h:
            raise ValueError("empty query box")
    if max_ranges is not None and max_ranges < 1:
        raise ValueError("max_ranges must be at least 1, got %r" % max_ranges)
    qlo = curve.cell_of(*lo)
    qhi = curve.cell_of(*hi)
    order = curve.order
    merged: List[CurveRange] = []
    stack: List[Tuple[int, int]] = [(0, order)]
    while stack:
        d0, m = stack.pop()
        side = 1 << m
        cells = curve.decode_cell(d0)
        cube_lo = tuple(c & ~(side - 1) for c in cells)
        cube_hi = tuple(c + side - 1 for c in cube_lo)
        if any(
            cube_hi[i] < qlo[i] or cube_lo[i] > qhi[i] for i in range(3)
        ):
            continue
        inside = all(
            qlo[i] <= cube_lo[i] and cube_hi[i] <= qhi[i] for i in range(3)
        )
        if inside or m == 0:
            hi_d = d0 + (1 << (3 * m)) - 1
            if merged and merged[-1].hi + 1 == d0:
                merged[-1] = CurveRange(merged[-1].lo, hi_d)
            else:
                merged.append(CurveRange(d0, hi_d))
            continue
        step = 1 << (3 * (m - 1))
        for i in range(7, -1, -1):
            stack.append((d0 + i * step, m - 1))
    if max_ranges is not None and max_ranges < len(merged):
        merged = _coarsen(merged, max_ranges)
    return merged
