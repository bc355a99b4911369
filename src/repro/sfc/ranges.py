"""One table-driven quadtree curve, and its rectangle covering.

Hilbert, Z-order and GeoHash are one quadtree whose four children are
visited in different orders: :class:`QuadtreeCurve` reads that order
from a subclass's ``QUADRANTS`` table.  The covering is the algorithm
the paper times in Table 8: given the spatial extent of a query, find
which 1D curve values (Hilbert distances, GeoHash cells, ...) must be
searched in the index.  Consecutive values are merged into closed
ranges; the query builder later turns length-1 ranges into ``$in``
members and longer ones into ``$gte``/``$lte`` clauses, exactly as
Section 4.2.1 describes.

The decomposition never enumerates individual cells over the whole
rectangle.  The sub-curve covering distances ``[d0, d0 + 4**m)`` (with
``d0`` a multiple of ``4**m``) always occupies an axis-aligned square
of side ``2**m``, so a quadrant that falls fully inside the query emits
one range and recursion only continues along the query boundary.  Cost
is proportional to the rectangle perimeter, not its area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

__all__ = [
    "CurveRange",
    "QuadtreeCurve",
    "covering_ranges",
    "covering_range_set",
    "RangeSet",
]

#: Per orientation state, the four child quadrants in curve order, each
#: ``(dx, dy, next_state)``: the child's square sits ``dx``/``dy``
#: half-sides from its parent's origin and is walked in ``next_state``.
#: State 0 is the root's.
Quadrants = Tuple[Tuple[Tuple[int, int, int], ...], ...]


class QuadtreeCurve:
    """A quadtree curve of ``order`` bits per dimension over a domain.

    A subclass supplies the ``QUADRANTS`` table, ``order`` (1 to 32) and
    the domain ``min_x``, ``min_y``, ``max_x``, ``max_y``; every cell
    address is derived here from the table, one level per lookup.  The
    grid is ``2**order`` cells per side and curve values range over
    ``[0, 4**order)``.
    """

    QUADRANTS: Quadrants
    #: Inverse of ``QUADRANTS``, built once per class: per state, the
    #: ``(i, next_state)`` of the child at quadrant ``2 * dx + dy``.
    _CHILDREN: Tuple[Tuple[Tuple[int, int], ...], ...]
    order: int
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        children = []
        for quadrants in cls.QUADRANTS:
            row = [(0, 0)] * 4
            for i, (dx, dy, nxt) in enumerate(quadrants):
                row[2 * dx + dy] = (i, nxt)
            children.append(tuple(row))
        cls._CHILDREN = tuple(children)

    def __post_init__(self) -> None:
        if not 1 <= self.order <= 32:
            raise ValueError("order must be in 1..32, got %r" % self.order)
        if self.min_x >= self.max_x or self.min_y >= self.max_y:
            raise ValueError(
                "degenerate domain [(%r, %r), (%r, %r)]"
                % (self.min_x, self.min_y, self.max_x, self.max_y)
            )

    @classmethod
    def global_curve(cls, order: int = 13) -> Any:
        """The curve over its default domain, the whole globe."""
        return cls(order=order)  # type: ignore[call-arg]

    @property
    def cells_per_side(self) -> int:
        """Number of grid cells along each dimension."""
        return 1 << self.order

    @property
    def max_distance(self) -> int:
        """Largest valid curve value (inclusive)."""
        return (1 << (2 * self.order)) - 1

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Grid cell ``(cx, cy)`` containing point ``(x, y)``.

        Points outside the domain are clamped to the border cells, which
        matches how a fixed-extent curve must treat stray coordinates;
        the clamp happens on the float fraction, so an infinite or huge
        coordinate clamps instead of overflowing ``int()``.  A NaN
        coordinate has no cell and raises :class:`ValueError`.
        """
        n = 1 << self.order
        fx = (x - self.min_x) / (self.max_x - self.min_x)
        fy = (y - self.min_y) / (self.max_y - self.min_y)
        # n is a power of two, so f * n < n whenever f < 1.
        cx = int(fx * n) if 0.0 <= fx < 1.0 else _clamp_fraction(fx, n, "x")
        cy = int(fy * n) if 0.0 <= fy < 1.0 else _clamp_fraction(fy, n, "y")
        return cx, cy

    def encode(self, x: float, y: float) -> int:
        """Curve value of the cell containing ``(x, y)``.

        For geographic use, ``x`` is longitude and ``y`` latitude.
        """
        cx, cy = self.cell_of(x, y)
        return self.encode_cell(cx, cy)

    def decode_cell(self, d: int) -> Tuple[int, int]:
        """Grid cell of curve value ``d``: one table lookup per level."""
        if not 0 <= d <= self.max_distance:
            raise ValueError(
                "distance %d outside the curve [0, %d]" % (d, self.max_distance)
            )
        quadrants = self.QUADRANTS
        cx = cy = state = 0
        for shift in range(2 * self.order - 2, -1, -2):
            dx, dy, state = quadrants[state][(d >> shift) & 3]
            cx = (cx << 1) | dx
            cy = (cy << 1) | dy
        return cx, cy

    def encode_cell(self, cx: int, cy: int) -> int:
        """Curve value of grid cell ``(cx, cy)``: one lookup per level."""
        n = 1 << self.order
        if not (0 <= cx < n and 0 <= cy < n):
            raise ValueError(
                "cell (%d, %d) outside the %dx%d grid" % (cx, cy, n, n)
            )
        children = self._CHILDREN
        d = state = 0
        for shift in range(self.order - 1, -1, -1):
            i, state = children[state][
                (((cx >> shift) & 1) << 1) | ((cy >> shift) & 1)
            ]
            d = (d << 2) | i
        return d

    def cell_bounds(self, d: int) -> Tuple[float, float, float, float]:
        """Continuous bounds ``(min_x, min_y, max_x, max_y)`` of a cell."""
        cx, cy = self.decode_cell(d)
        n = 1 << self.order
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


def _clamp_fraction(f: float, n: int, name: str) -> int:
    if f != f:
        raise ValueError("coordinate %s is NaN" % name)
    return 0 if f < 0.0 else n - 1


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


def covering_ranges(
    curve: QuadtreeCurve,
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
    fewer query clauses (the refinement step removes them later); a
    ``max_ranges`` below 1 raises :class:`ValueError`.

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
    if max_ranges is not None and max_ranges < 1:
        raise ValueError("max_ranges must be at least 1, got %r" % max_ranges)
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
    if max_ranges is not None and len(merged) > max_ranges:
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
    curve: QuadtreeCurve,
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

