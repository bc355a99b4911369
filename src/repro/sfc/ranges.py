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

from repro.cache import StampedLRUCache

__all__ = [
    "CurveRange",
    "Quadtree2DCurve",
    "covering_ranges",
    "RangeSet",
    "CellWalkSkeleton",
    "curve_skeleton",
]


class Quadtree2DCurve(Protocol):
    """Interface shared by Hilbert, Z-order, and GeoHash grids."""

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


class CellWalkSkeleton:
    """Memo of quadtree-node squares for one curve's cell walk.

    The decomposition DFS is two parts: a *skeleton* — which square of
    the plane each quadtree node ``(d0, m)`` occupies, a pure function
    of the (frozen, immutable) curve — and the box tests against the
    query rectangle, which change per query.  Different query boxes
    revisit the same high-level nodes constantly, so memoizing the
    skeleton lets every later decomposition over the same curve skip
    the per-node ``decode_cell`` bit-twiddling and re-walk only the
    box-dependent part.

    Deliberately *not* a coherence-governed cache: there is no state to
    go stale against (the mapping can never be invalidated), so it
    carries no version stamp.  Writes are idempotent same-value stores
    into a plain dict, safe under concurrent readers; growth is capped
    by refusing inserts past ``max_nodes`` rather than evicting.
    """

    __slots__ = ("curve", "nodes", "max_nodes")

    def __init__(
        self, curve: Quadtree2DCurve, max_nodes: int = 1 << 18
    ) -> None:
        self.curve = curve
        self.nodes: dict = {}
        self.max_nodes = max_nodes

    def node_square(self, d0: int, m: int) -> Tuple[int, int]:
        """Origin ``(sx0, sy0)`` of the side-``2**m`` node at ``d0``."""
        square = self.nodes.get((d0, m))
        if square is None:
            side = 1 << m
            cx, cy = self.curve.decode_cell(d0)
            square = (cx & ~(side - 1), cy & ~(side - 1))
            if len(self.nodes) < self.max_nodes:
                self.nodes[(d0, m)] = square
        return square


#: Process-wide skeleton per curve.  Curves are frozen dataclasses, so
#: identity-by-value keying can never conflate precisions or curve
#: families; the table is tiny (one entry per distinct curve in use).
_SKELETONS: dict = {}


def curve_skeleton(curve: Quadtree2DCurve) -> CellWalkSkeleton:
    """The shared :class:`CellWalkSkeleton` for a curve."""
    skeleton = _SKELETONS.get(curve)
    if skeleton is None:
        if len(_SKELETONS) >= 64:
            _SKELETONS.clear()
        skeleton = _SKELETONS.setdefault(curve, CellWalkSkeleton(curve))
    return skeleton


def covering_ranges(
    curve: Quadtree2DCurve,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    max_ranges: int | None = None,
    skeleton: CellWalkSkeleton | None = None,
) -> List[CurveRange]:
    """Curve ranges covering every cell intersecting the rectangle.

    The result is sorted, non-overlapping, and maximal (adjacent ranges
    are merged).  When ``max_ranges`` is given, the smallest inter-range
    gaps are swallowed until the count fits, trading false positives for
    fewer query clauses (the refinement step removes them later).
    ``skeleton`` optionally supplies the memoized cell walk for this
    curve (see :class:`CellWalkSkeleton`); results are identical with or
    without it.
    """
    if min_x > max_x or min_y > max_y:
        raise ValueError("empty query rectangle")
    qx0, qy0, qx1, qy1 = curve.cell_range_for_box(min_x, min_y, max_x, max_y)
    order = curve.order
    found: List[Tuple[int, int]] = []
    node_square = skeleton.node_square if skeleton is not None else None

    # Iterative DFS over the quadtree of curve sub-ranges.  Each stack
    # entry is (d0, m): the sub-curve [d0, d0 + 4**m) occupying an
    # axis-aligned square of side 2**m.
    stack: List[Tuple[int, int]] = [(0, order)]
    while stack:
        d0, m = stack.pop()
        side = 1 << m
        if node_square is not None:
            sx0, sy0 = node_square(d0, m)
        else:
            cx, cy = curve.decode_cell(d0)
            sx0 = cx & ~(side - 1)
            sy0 = cy & ~(side - 1)
        sx1 = sx0 + side - 1
        sy1 = sy0 + side - 1
        if sx1 < qx0 or sx0 > qx1 or sy1 < qy0 or sy0 > qy1:
            continue  # disjoint
        inside = qx0 <= sx0 and sx1 <= qx1 and qy0 <= sy0 and sy1 <= qy1
        if inside or m == 0:
            found.append((d0, d0 + (1 << (2 * m)) - 1))
            continue
        step = 1 << (2 * (m - 1))
        for i in range(4):
            stack.append((d0 + i * step, m - 1))

    found.sort()
    merged: List[CurveRange] = []
    for lo, hi in found:
        if merged and lo <= merged[-1].hi + 1:
            last = merged[-1]
            merged[-1] = CurveRange(last.lo, max(last.hi, hi))
        else:
            merged.append(CurveRange(lo, hi))

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
    skeleton: CellWalkSkeleton | None = None,
) -> RangeSet:
    """Convenience wrapper returning a :class:`RangeSet`."""
    return RangeSet.from_ranges(
        covering_ranges(
            curve, min_x, min_y, max_x, max_y, max_ranges, skeleton=skeleton
        )
    )


def memoized_covering_range_set(
    cache: StampedLRUCache,
    curve: Quadtree2DCurve,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    max_ranges: int | None = None,
) -> RangeSet:
    """:func:`covering_range_set` memoized in ``cache``.

    Decomposition cost is proportional to the query-rectangle
    perimeter (Table 8 measures it at milliseconds for large boxes),
    yet workloads re-issue the same rectangles constantly.  Entries are
    keyed by ``(curve, quantized cell box, max_ranges)`` and carry no
    stamp — every curve is a frozen dataclass, so the key captures its
    type, order and domain by value, and the quantized box (not the
    float box) lets two rectangles covering the same cells share one
    entry; nothing the value derives from can change.  A miss
    decomposes outside the cache's lock (duplicate concurrent work is
    harmless: the last put wins with an identical, frozen value) and
    reuses the curve's cell-walk skeleton, so only the box-dependent
    part of the quadtree walk is recomputed.
    """
    if min_x > max_x or min_y > max_y:
        raise ValueError("empty query rectangle")
    key = (
        curve,
        curve.cell_range_for_box(min_x, min_y, max_x, max_y),
        max_ranges,
    )
    result = cache.get(key)
    if result is None:
        result = covering_range_set(
            curve,
            min_x,
            min_y,
            max_x,
            max_y,
            max_ranges,
            skeleton=curve_skeleton(curve),
        )
        cache.put(key, result)
    return result


#: Process-wide memo behind
#: :meth:`repro.core.query.SpatioTemporalQuery.to_hilbert_query`.
#: Benchmarks that must time raw decomposition (Table 8) call the
#: uncached functions directly.
DEFAULT_RANGE_CACHE = StampedLRUCache(max_entries=512)

__all__.extend(
    ["covering_range_set", "memoized_covering_range_set", "DEFAULT_RANGE_CACHE"]
)
