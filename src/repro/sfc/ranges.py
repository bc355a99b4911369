"""Query-rectangle → covering-range decomposition for quadtree curves.

This is the algorithm the paper times in Table 8: given the spatial
extent of a query, find which 1D curve values (Hilbert distances,
GeoHash cells, ...) must be searched in the index.  Consecutive values
are merged into closed ranges; the query builder later turns length-1
ranges into ``$in`` members and longer ones into ``$gte``/``$lte``
clauses, exactly as Section 4.2.1 describes.

The decomposition never enumerates individual cells over the whole
rectangle.  All three curves in :mod:`repro.sfc` are quadtree-aligned —
the sub-curve covering distances ``[d0, d0 + 4**m)`` (with ``d0`` a
multiple of ``4**m``) always occupies an axis-aligned square of side
``2**m`` — so a quadrant that falls fully inside the query emits one
range and recursion only continues along the query boundary.  Cost is
proportional to the rectangle perimeter, not its area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple

__all__ = [
    "CurveRange",
    "Quadtree2DCurve",
    "covering_ranges",
    "covering_range_set",
    "grid_cell",
    "RangeSet",
]

#: Per orientation state, the four child quadrants in curve order, each
#: ``(dx, dy, next_state)``: the child's square sits ``dx``/``dy``
#: half-sides from its parent's origin and is walked in ``next_state``.
#: State 0 is the root's.
Quadrants = Tuple[Tuple[Tuple[int, int, int], ...], ...]


class Quadtree2DCurve(Protocol):
    """Interface shared by Hilbert, Z-order, and GeoHash grids."""

    QUADRANTS: Quadrants

    @property
    def order(self) -> int:  # bits per dimension
        """Bits per dimension."""
        ...

    def decode_cell(self, d: int) -> Tuple[int, int]:
        """Grid cell of a curve distance."""
        ...

    def encode_cell(self, cx: int, cy: int) -> int:
        """Curve distance of a grid cell."""
        ...

    def cell_range_for_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> Tuple[int, int, int, int]:
        """Inclusive cell rectangle covering a box."""
        ...


@dataclass(frozen=True, order=True)
class CurveRange:
    """A closed range ``[lo, hi]`` of curve distances."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("range lo %d > hi %d" % (self.lo, self.hi))

    @property
    def size(self) -> int:
        """Number of distinct values covered."""
        return self.hi - self.lo + 1

    @property
    def is_single(self) -> bool:
        """True when the range covers a single value."""
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the closed range."""
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class RangeSet:
    """The outcome of a decomposition, in the paper's query vocabulary.

    ``ranges`` holds the multi-value intervals (rendered as
    ``{$gte, $lte}`` clauses) and ``singles`` the isolated cell values
    (rendered as one ``$in`` clause).
    """

    ranges: Tuple[CurveRange, ...]
    singles: Tuple[int, ...]

    @classmethod
    def from_ranges(cls, merged: Sequence[CurveRange]) -> "RangeSet":
        """Split ranges into multi-value intervals and singles.

        Adjacent and overlapping input ranges are coalesced first
        (``[1, 5]`` + ``[6, 9]`` → ``[1, 9]``), so degenerate
        decompositions never emit redundant ``$or`` clauses / index
        probes for what is one contiguous curve interval.
        """
        coalesced: List[CurveRange] = []
        for r in sorted(merged):
            if coalesced and r.lo <= coalesced[-1].hi + 1:
                last = coalesced[-1]
                if r.hi > last.hi:
                    coalesced[-1] = CurveRange(last.lo, r.hi)
            else:
                coalesced.append(r)
        multi = tuple(r for r in coalesced if not r.is_single)
        single = tuple(r.lo for r in coalesced if r.is_single)
        return cls(ranges=multi, singles=single)

    @property
    def all_ranges(self) -> Tuple[CurveRange, ...]:
        """Every interval, singles included, sorted by ``lo``."""
        out = list(self.ranges) + [CurveRange(s, s) for s in self.singles]
        out.sort()
        return tuple(out)

    @property
    def total_cells(self) -> int:
        """Number of distinct curve values covered."""
        return sum(r.size for r in self.ranges) + len(self.singles)

    def contains(self, value: int) -> bool:
        """Whether a curve value falls inside any range or single."""
        if value in self.singles:
            return True
        return any(r.contains(value) for r in self.ranges)


def grid_cell(
    x: float,
    y: float,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    n: int,
) -> Tuple[int, int]:
    """Cell ``(cx, cy)`` of point ``(x, y)`` on an ``n``-per-side grid.

    Points outside the domain are clamped to the border cells, which
    matches how a fixed-extent curve must treat stray coordinates; the
    clamp happens on the float fraction, so an infinite or huge
    coordinate clamps instead of overflowing ``int()``.  A NaN
    coordinate has no cell and raises :class:`ValueError`.
    """
    fx = (x - min_x) / (max_x - min_x)
    fy = (y - min_y) / (max_y - min_y)
    # n is a power of two, so f * n < n whenever f < 1.
    cx = int(fx * n) if 0.0 <= fx < 1.0 else _clamp_fraction(fx, n, "x")
    cy = int(fy * n) if 0.0 <= fy < 1.0 else _clamp_fraction(fy, n, "y")
    return cx, cy


def _clamp_fraction(f: float, n: int, name: str) -> int:
    if f != f:
        raise ValueError("coordinate %s is NaN" % name)
    return 0 if f < 0.0 else n - 1


def covering_ranges(
    curve: Quadtree2DCurve,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    max_ranges: int | None = None,
) -> List[CurveRange]:
    """Curve ranges covering every cell intersecting the rectangle.

    The result is sorted, non-overlapping, and maximal (adjacent ranges
    are merged).  When ``max_ranges`` is given, the smallest inter-range
    gaps are swallowed until the count fits, trading false positives for
    fewer query clauses (the refinement step removes them later).

    One depth-first descent of the curve's quadtree.  Each node carries
    its square and the curve's orientation state, so a child's square
    is its parent's plus a quadrant offset read from the curve's
    ``QUADRANTS`` table — no cell is ever decoded.  Only children that
    intersect the box are pushed, in reverse curve order, so nodes pop
    in curve order and each emitted run extends or follows the last:
    runs merge as they are emitted and nothing is sorted.
    """
    if min_x > max_x or min_y > max_y:
        raise ValueError("empty query rectangle")
    qx0, qy0, qx1, qy1 = curve.cell_range_for_box(min_x, min_y, max_x, max_y)
    quadrants = curve.QUADRANTS
    los: List[int] = []
    his: List[int] = []
    # Stack entry: (d0, m, sx0, sy0, state) — the sub-curve
    # [d0, d0 + 4**m) occupying the side-2**m square at (sx0, sy0).
    # The clamped box always meets the root; every pushed node meets it.
    stack: List[Tuple[int, int, int, int, int]] = [(0, curve.order, 0, 0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        d0, m, sx0, sy0, state = pop()
        last = (1 << m) - 1
        if (
            m == 0
            or qx0 <= sx0 and sx0 + last <= qx1
            and qy0 <= sy0 and sy0 + last <= qy1
        ):
            hi = d0 + (1 << (2 * m)) - 1
            if his and his[-1] + 1 == d0:
                his[-1] = hi
            else:
                los.append(d0)
                his.append(hi)
            continue
        m -= 1
        half = 1 << m
        step = 1 << (2 * m)
        children = quadrants[state]
        for i in (3, 2, 1, 0):
            dx, dy, nxt = children[i]
            cx0 = sx0 + dx * half
            cy0 = sy0 + dy * half
            if (
                cx0 <= qx1 and qx0 < cx0 + half
                and cy0 <= qy1 and qy0 < cy0 + half
            ):
                push((d0 + i * step, m, cx0, cy0, nxt))

    merged = [CurveRange(lo, hi) for lo, hi in zip(los, his)]
    if max_ranges is not None and max_ranges >= 1 and len(merged) > max_ranges:
        merged = _coarsen(merged, max_ranges)
    return merged


def _coarsen(ranges: List[CurveRange], limit: int) -> List[CurveRange]:
    """Merge the smallest gaps between ranges until ``limit`` remain."""
    gaps = sorted(
        range(len(ranges) - 1),
        key=lambda i: ranges[i + 1].lo - ranges[i].hi,
    )
    to_merge = set(gaps[: len(ranges) - limit])
    out: List[CurveRange] = []
    for i, r in enumerate(ranges):
        if out and (i - 1) in to_merge:
            out[-1] = CurveRange(out[-1].lo, r.hi)
        else:
            out.append(r)
    return out


def covering_range_set(
    curve: Quadtree2DCurve,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    max_ranges: int | None = None,
) -> RangeSet:
    """Convenience wrapper returning a :class:`RangeSet`."""
    return RangeSet.from_ranges(
        covering_ranges(curve, min_x, min_y, max_x, max_y, max_ranges)
    )

