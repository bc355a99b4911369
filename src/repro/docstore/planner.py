"""Query planning: predicate analysis, index bounds, plan selection.

This is the component responsible for Table 7 of the paper: given a
query and the available indexes, the optimizer must choose between, say,
the ``(location, date)`` compound index and the single-field ``date``
index created by sharding — and the paper observes MongoDB choosing
differently per query shape.  The planner here mirrors the structure of
MongoDB's: extract per-path predicates, generate index bounds for every
candidate index, estimate a scan cost, and keep the cheapest plan.

Supported bound sources, matching the paper's workloads:

* comparison predicates (``$eq``/``$gt``/``$gte``/``$lt``/``$lte``)
  intersected into one interval per path;
* ``$in`` lists → one point interval per member;
* ``$geoWithin`` on a 2dsphere field → GeoHash covering ranges computed
  by :mod:`repro.sfc.ranges` (this is what MongoDB's S2/GeoHash region
  coverer does internally);
* an ``$or`` whose every clause constrains the *same* single path (the
  Hilbert-range pattern of Section 4.2.1) → the union of the clause
  intervals on that path, folded once by :func:`fold_or` for the
  planner, the compiled matcher and the parameterized-plan binder.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.docstore import bson
from repro.docstore.index import (
    GEOSPHERE,
    HASHED,
    SCAN_BOTTOM,
    SCAN_TOP,
    Index,
)
from repro.errors import PlanError, QueryError
from repro.geo.geojson import parse_geometry
from repro.geo.geometry import BoundingBox, Polygon
from repro.sfc.ranges import covering_ranges

__all__ = [
    "Interval",
    "PathPredicate",
    "QueryShape",
    "IndexScanPlan",
    "CollScanPlan",
    "plan_query",
    "analyze_query",
    "fold_or",
    "OrFold",
    "is_operator_expression",
    "is_plain_sequence",
    "geo_region",
    "BOUND_OPS",
    "SEEK_COST",
]

#: Operators the planner turns into index bounds.  A compiled predicate
#: built only from these is implied by exact bounds on its path.
BOUND_OPS = frozenset(("$eq", "$in", "$gt", "$gte", "$lt", "$lte"))

#: Cost (in key-comparison units) charged per index seek.  Calibrated so
#: many-range scans (e.g. a big `$geoWithin` covering) lose to a single
#: wide range when the wide range is genuinely cheaper.
SEEK_COST = 8.0


def is_operator_expression(value: Any) -> bool:
    """True when a predicate value is an operator doc like ``{$gte: 3}``."""
    return isinstance(value, Mapping) and any(
        isinstance(k, str) and k.startswith("$") for k in value
    )


def is_plain_sequence(value: Any) -> bool:
    """An array argument: a sequence that is not a string or bytes."""
    return type(value) is list or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    )


class Interval(NamedTuple):
    """A closed/open interval over canonical key space.

    ``lo``/``hi`` are canonical keys (see :func:`bson.sort_key`) or the
    scan sentinels.  ``point`` intervals have equal inclusive bounds.
    A named tuple: a ``$or`` fold builds one per merged range, and a
    tuple is built several times faster than a frozen dataclass.
    """

    lo: Tuple
    hi: Tuple
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    @classmethod
    def full(cls) -> "Interval":
        """The unbounded interval (every key)."""
        return cls(SCAN_BOTTOM, SCAN_TOP)

    @classmethod
    def point(cls, value: Any) -> "Interval":
        """A single-value interval."""
        canon = bson.sort_key(value)
        return cls(canon, canon)

    @property
    def is_full(self) -> bool:
        """Whether the interval spans the whole key space."""
        return self.lo == SCAN_BOTTOM and self.hi == SCAN_TOP

    @property
    def is_point(self) -> bool:
        """Whether the interval holds exactly one value."""
        return self.lo == self.hi and self.lo_inclusive and self.hi_inclusive

    def width_fraction(self, stats: Optional[Tuple[float, float]]) -> float:
        """Estimated fraction of entries inside this interval.

        Uses the index's observed numeric min/max when available;
        non-numeric or unbounded-domain intervals fall back to fixed
        heuristics (point → tiny, full → 1.0, half-bounded → 1/3),
        similar in spirit to classic System-R defaults.
        """
        if self.is_full:
            return 1.0
        if self.is_point:
            return 0.001
        lo_num = _canon_to_float(self.lo)
        hi_num = _canon_to_float(self.hi)
        if stats is not None and stats[1] > stats[0]:
            domain = stats[1] - stats[0]
            lo_eff = stats[0] if lo_num is None else max(lo_num, stats[0])
            hi_eff = stats[1] if hi_num is None else min(hi_num, stats[1])
            if hi_eff <= lo_eff:
                return 0.0005
            return min(1.0, (hi_eff - lo_eff) / domain)
        if lo_num is None or hi_num is None:
            return 1.0 / 3.0
        return 0.1


def _canon_to_float(canon: Tuple) -> Optional[float]:
    """Numeric projection of a canonical key, if it has one."""
    if canon in (SCAN_BOTTOM, SCAN_TOP):
        return None
    if len(canon) >= 2 and isinstance(canon[1], (int, float)):
        return float(canon[1])
    return None


@dataclass
class PathPredicate:
    """Everything the query asserts about one dotted path."""

    path: str
    eq_values: List[Any] = field(default_factory=list)
    in_values: List[Any] = field(default_factory=list)
    gt: Optional[Any] = None
    gt_inclusive: bool = True
    lt: Optional[Any] = None
    lt_inclusive: bool = True
    geo_region: Optional[Any] = None  # Polygon or BoundingBox
    #: Interval unions contributed by a single-path $or (Hilbert ranges).
    or_intervals: List[Interval] = field(default_factory=list)
    #: Bounds-contributing operators absorbed ($eq/$in/range ends/folded
    #: $or).  Tightening and unioning lose what each one accepted, so
    #: only the one-operator forms can be proved exact.
    n_bound_ops: int = 0
    _exact: Optional[bool] = field(default=None, repr=False, compare=False)

    def absorb_or(self, intervals: List[Interval]) -> None:
        """Record the interval union of one folded single-path ``$or``."""
        self.or_intervals.extend(intervals)
        self.n_bound_ops += 1

    def bounds_exact(self) -> bool:
        """Whether plain-field index bounds admit only matching values.

        True for the three forms whose bounds are provably a subset of
        what every bounds-derivable predicate on the path accepts: one
        closed range, one ``$eq``/``$in``, or one folded ``$or`` — each
        with scalar, non-null endpoints inside one type
        bracket (a sentinel end admits other BSON types that the
        type-bracketed operators reject).  Mixed forms are unioned or
        over-kept by :meth:`plain_intervals`/:func:`build_bounds_for_index`
        and stay in the FETCH filter.  Memoised: one shape is planned
        against every index of every targeted shard.
        """
        if self._exact is None:
            if self.n_bound_ops == 1:
                one_form = not self.has_range()
            else:
                one_form = (
                    self.n_bound_ops == 2
                    and self.gt is not None
                    and self.lt is not None
                )
            self._exact = one_form and all(
                _exact_end(iv.lo) and _exact_end(iv.hi) and iv.lo[0] == iv.hi[0]
                for iv in self.or_intervals or self.plain_intervals()
            )
        return self._exact

    def has_range(self) -> bool:
        """Whether any range operator constrains the path."""
        return self.gt is not None or self.lt is not None

    def is_constraining(self) -> bool:
        """Whether the predicate can produce index bounds."""
        return bool(
            self.eq_values
            or self.in_values
            or self.has_range()
            or self.geo_region is not None
            or self.or_intervals
        )

    def plain_intervals(self) -> List[Interval]:
        """Intervals from eq/in/range predicates (no geo, no $or)."""
        out: List[Interval] = []
        for v in self.eq_values:
            out.append(Interval.point(v))
        for v in self.in_values:
            out.append(Interval.point(v))
        if self.has_range():
            lo = SCAN_BOTTOM if self.gt is None else bson.sort_key(self.gt)
            hi = SCAN_TOP if self.lt is None else bson.sort_key(self.lt)
            out.append(
                Interval(lo, hi, self.gt_inclusive, self.lt_inclusive)
            )
        if not out:
            return []
        # Intersect eq/in points with the range if both present.
        ranges = [iv for iv in out if not iv.is_point]
        points = [iv for iv in out if iv.is_point]
        if ranges and points:
            rng = ranges[0]
            points = [
                p
                for p in points
                if _interval_contains(rng, p.lo)
            ]
            out = points if points else [ranges[0]]
        return _normalize_intervals(out)


_CONTAINER_RANKS = (bson.type_rank({}), bson.type_rank([]))


def _exact_end(canon: Tuple) -> bool:
    """A scalar, non-null canonical endpoint (no sentinel)."""
    return len(canon) > 1 and canon[0] not in _CONTAINER_RANKS


def _interval_contains(interval: Interval, canon: Tuple) -> bool:
    if canon < interval.lo:
        return False
    if canon == interval.lo and not interval.lo_inclusive:
        return False
    if canon > interval.hi:
        return False
    if canon == interval.hi and not interval.hi_inclusive:
        return False
    return True


def _normalize_intervals(intervals: List[Interval]) -> List[Interval]:
    """Sort and merge overlapping/adjacent intervals."""
    return _merge(
        [
            (iv.lo, not iv.lo_inclusive, iv.hi, iv.hi_inclusive, False)
            for iv in intervals
        ]
    )[0]


def _merge(items: List[Tuple]) -> Tuple[List[Interval], List[bool]]:
    """Sort ``(lo, lo_excluded, hi, hi_inclusive, span)`` items and merge
    overlapping or touching ones into a union of disjoint intervals.

    Equal lower ends sort inclusive first, so the union keeps the end.
    Returns the intervals and, per interval, whether any merged item
    was a span (a range clause, not a point).
    """
    items.sort()
    intervals: List[Interval] = []
    spans: List[bool] = []
    if not items:
        return intervals, spans
    rest = iter(items)
    lo, lo_excluded, hi, hi_inclusive, span = next(rest)
    lo_inclusive = not lo_excluded
    for next_lo, next_excluded, next_hi, next_inclusive, next_span in rest:
        if next_lo < hi or (next_lo == hi and (not next_excluded or hi_inclusive)):
            if next_hi > hi or (next_hi == hi and next_inclusive):
                hi, hi_inclusive = next_hi, next_inclusive
            span = span or next_span
            continue
        intervals.append(Interval(lo, hi, lo_inclusive, hi_inclusive))
        spans.append(span)
        lo, hi, hi_inclusive, span = next_lo, next_hi, next_inclusive, next_span
        lo_inclusive = not next_excluded
    intervals.append(Interval(lo, hi, lo_inclusive, hi_inclusive))
    spans.append(span)
    return intervals, spans


@dataclass
class QueryShape:
    """The analyzed form of a query document."""

    predicates: Dict[str, PathPredicate]
    residual_query: Mapping[str, Any]
    #: True when the query contained a multi-path $or the planner could
    #: not fold into index bounds (forces collection-scan semantics
    #: unless some other predicate is indexed).
    opaque_or: bool = False

    def predicate(self, path: str) -> Optional[PathPredicate]:
        """The predicate on a path, or None."""
        return self.predicates.get(path)


def analyze_query(query: Mapping[str, Any]) -> QueryShape:
    """Extract per-path predicates from a query document."""
    predicates: Dict[str, PathPredicate] = {}
    opaque_or = False

    def pred(path: str) -> PathPredicate:
        if path not in predicates:
            predicates[path] = PathPredicate(path)
        return predicates[path]

    def absorb(doc: Mapping[str, Any]) -> None:
        nonlocal opaque_or
        for key, value in doc.items():
            if key == "$and":
                for clause in value:
                    absorb(clause)
            elif key == "$or":
                folded = fold_or(value)
                if folded is None:
                    opaque_or = True
                else:
                    pred(folded.path).absorb_or(folded.intervals)
            elif key == "$nor":
                opaque_or = True
            elif key.startswith("$"):
                raise QueryError("unsupported top-level operator %r" % key)
            elif is_operator_expression(value):
                _absorb_operators(pred(key), value)
            else:
                _absorb_operators(pred(key), {"$eq": value})

    absorb(query)
    return QueryShape(
        predicates=predicates, residual_query=query, opaque_or=opaque_or
    )


def _absorb_operators(p: PathPredicate, ops: Mapping[str, Any]) -> None:
    for op, arg in ops.items():
        if op in BOUND_OPS:
            p.n_bound_ops += 1
        if op == "$eq":
            p.eq_values.append(arg)
        elif op == "$in":
            p.in_values.extend(arg)
        elif op == "$gt":
            _tighten_gt(p, arg, inclusive=False)
        elif op == "$gte":
            _tighten_gt(p, arg, inclusive=True)
        elif op == "$lt":
            _tighten_lt(p, arg, inclusive=False)
        elif op == "$lte":
            _tighten_lt(p, arg, inclusive=True)
        elif op in ("$geoWithin", "$geoIntersects"):
            p.geo_region = geo_region(arg)
        # $ne/$nin/$exists/$not/... contribute no bounds; the residual
        # matcher enforces them.


def _tighten_gt(p: PathPredicate, value: Any, inclusive: bool) -> None:
    if p.gt is None or bson.compare(value, p.gt) > 0:
        p.gt, p.gt_inclusive = value, inclusive
    elif bson.compare(value, p.gt) == 0 and not inclusive:
        p.gt_inclusive = False


def _tighten_lt(p: PathPredicate, value: Any, inclusive: bool) -> None:
    if p.lt is None or bson.compare(value, p.lt) < 0:
        p.lt, p.lt_inclusive = value, inclusive
    elif bson.compare(value, p.lt) == 0 and not inclusive:
        p.lt_inclusive = False


def geo_region(arg: Any) -> Any:
    """A ``$geoWithin``/``$geoIntersects`` argument as a testable region.

    A Polygon ``$geometry`` or a ``$box``; anything else raises
    :class:`QueryError`, as MongoDB rejects it when it parses the query.
    """
    try:
        if isinstance(arg, Mapping):
            if "$geometry" in arg:
                geometry = parse_geometry(arg["$geometry"])
                if isinstance(geometry, Polygon):
                    return geometry
            elif "$box" in arg:
                (lo, hi) = arg["$box"]
                return BoundingBox(lo[0], lo[1], hi[0], hi[1])
        elif isinstance(arg, (Polygon, BoundingBox)):
            return arg
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise QueryError("unparseable geo region %r: %s" % (arg, exc)) from None
    raise QueryError(
        "geo region must be a Polygon $geometry or a $box, got %r" % (arg,)
    )


class OrFold(NamedTuple):
    """A single-path ``$or`` folded into merged canonical intervals."""

    path: str
    #: Sorted, disjoint: the planner's bounds on ``path``.
    intervals: List[Interval]
    #: Per interval: whether it absorbed a range clause.  An array
    #: meets a range when its elements' hull does (each end may be met
    #: by a different element); it meets a point only by an element.
    spans: List[bool]
    #: True when the intervals are the ``$or``'s verdict and not only a
    #: superset of it: a value matches when one of its candidates lies
    #: in them, or an array's per-bracket hull meets a span.
    exact: bool


_LOWER_OPS = {"$gte": True, "$gt": False}
_UPPER_OPS = {"$lte": True, "$lt": False}
#: The two operators of a one-range clause, in either order →
#: ``(first is the lower end, lower inclusive, upper inclusive)``.
_RANGE_FORMS = {
    ops: (first_is_lower, lo_incl, hi_incl)
    for lo_op, lo_incl in _LOWER_OPS.items()
    for hi_op, hi_incl in _UPPER_OPS.items()
    for ops, first_is_lower in (((lo_op, hi_op), True), ((hi_op, lo_op), False))
}


def fold_or(clauses: Any) -> Optional[OrFold]:
    """Fold a single-path ``$or`` into an interval union, if possible.

    This is the query pattern the paper's Hilbert approach generates:
    an ``$or`` of ``{hilbertIndex: {$gte, $lte}}`` ranges plus one
    ``{hilbertIndex: {$in: [...]}}`` clause.  Returns None when the
    clauses name more than one path, use an operator that gives no
    bounds, hold an argument with no place in the BSON order, or
    contribute no interval.

    A clause keeps the fold exact when it is one closed, non-empty
    range whose ends share a type bracket, or one ``$eq``/``$in``
    without null (null also matches a missing field).  Any other clause
    still yields bounds — a superset, which is all bounds need — through
    the planner's own :class:`PathPredicate` reading of it.
    """
    if not is_plain_sequence(clauses):
        return None
    sort_key = bson.sort_key
    path: Optional[str] = None
    items: List[Tuple] = []
    exact = True
    try:
        for clause in clauses:
            if not (type(clause) is dict or isinstance(clause, Mapping)):
                return None
            ((cpath, value),) = clause.items()  # ValueError unless one item
            if cpath != path:
                if path is not None:
                    return None
                if not isinstance(cpath, str) or cpath.startswith("$"):
                    return None
                path = cpath
            if type(value) is dict and len(value) == 2:
                # One closed range, the workloads' form: kept fast.
                (op_a, a), (op_b, b) = value.items()
                form = _RANGE_FORMS.get((op_a, op_b))
            else:
                form = None
            if form is not None:
                first_is_lower, lo_incl, hi_incl = form
                if first_is_lower:
                    lo, hi = sort_key(a), sort_key(b)
                else:
                    lo, hi = sort_key(b), sort_key(a)
                items.append((lo, not lo_incl, hi, hi_incl, True))
                if exact and (
                    lo[0] != hi[0]
                    or not (lo < hi or (lo == hi and lo_incl and hi_incl))
                ):
                    exact = False
                continue
            ops = value if is_operator_expression(value) else {"$eq": value}
            if not BOUND_OPS.issuperset(ops):
                return None
            if len(ops) == 1:
                ((op, arg),) = ops.items()
                if op == "$eq" or op == "$in":
                    points = [arg] if op == "$eq" else arg
                    if not is_plain_sequence(points):
                        return None
                    for point in points:
                        canon = sort_key(point)
                        items.append((canon, False, canon, True, False))
                        exact = exact and point is not None
                    continue
            sub = PathPredicate(cpath)
            _absorb_operators(sub, ops)
            for iv in sub.plain_intervals():
                items.append(
                    (iv.lo, not iv.lo_inclusive, iv.hi, iv.hi_inclusive, True)
                )
            exact = False
    except (TypeError, ValueError):
        return None
    if path is None or not items:
        return None
    intervals, spans = _merge(items)
    return OrFold(path, intervals, spans, exact)


@dataclass
class IndexScanPlan:
    """An executable index-bounds scan.

    ``bounds`` holds one sorted interval list per index field prefix;
    trailing unconstrained fields are omitted (the scan stops
    descending).  ``estimated_cost`` is what the optimizer ranked by.
    """

    index: Index
    bounds: List[List[Interval]]
    estimated_cost: float
    estimated_keys: float
    n_bounded_fields: int
    #: Paths whose bounds are exact (see :func:`build_bounds_for_index`).
    exact_paths: FrozenSet[str] = frozenset()

    @classmethod
    def from_bounds(
        cls, index: Index, built: Tuple, cost: float = 0.0, keys: float = 0.0
    ) -> "IndexScanPlan":
        """A plan over ``built`` = :func:`build_bounds_for_index`'s result.

        The estimates are advisory only — no executor or counter reads
        them — so hinted and single-candidate plans leave them zero.
        """
        bounds, n_bounded, exact_paths = built
        return cls(index, bounds, cost, keys, n_bounded, exact_paths)

    @property
    def index_name(self) -> str:
        """Name of the index this plan scans."""
        return self.index.name

    @property
    def covered_paths(self) -> FrozenSet[str]:
        """Paths whose droppable predicates FETCH need not re-check.

        Empty while the index holds a multikey entry: exactness is
        argued per scalar key, and multikey-ness is per shard, so it is
        read at execution time rather than baked into shared bounds.
        """
        return frozenset() if self.index.is_multikey() else self.exact_paths

    @property
    def kind(self) -> str:
        """Plan stage label (IXSCAN)."""
        return "IXSCAN"

    def describe(self) -> dict:
        """Explain-style summary of the plan."""
        return {
            "stage": "IXSCAN",
            "indexName": self.index_name,
            "boundedFields": self.n_bounded_fields,
            "intervalCounts": [len(b) for b in self.bounds],
            "estimatedCost": round(self.estimated_cost, 2),
            "estimatedKeys": round(self.estimated_keys, 2),
            "coveredPaths": sorted(self.covered_paths),
        }


@dataclass
class CollScanPlan:
    """Full collection scan fallback."""

    estimated_cost: float
    #: A collection scan proves nothing: FETCH filters the whole query.
    covered_paths = frozenset()

    @property
    def kind(self) -> str:
        """Plan stage label (COLLSCAN)."""
        return "COLLSCAN"

    def describe(self) -> dict:
        """Explain-style summary of the plan."""
        return {
            "stage": "COLLSCAN",
            "estimatedCost": round(self.estimated_cost, 2),
            "coveredPaths": sorted(self.covered_paths),
        }


def build_bounds_for_index(
    index: Index, shape: QueryShape, max_geo_ranges: Optional[int] = None
) -> Optional[Tuple[List[List[Interval]], int, FrozenSet[str]]]:
    """``(bounds, n_bounded, exact_paths)``, or None when unusable.

    Bounds are generated for the longest constrained field prefix.  The
    first field must be constrained — exactly the rule Section 3.1
    explains for compound-index traversal.  ``exact_paths`` names the
    bounded plain fields whose bounds admit only values the path's
    bounds-derivable predicates accept
    (:meth:`PathPredicate.bounds_exact`); 2dsphere coverings
    over-approximate and hashed bounds collide, so neither qualifies.
    """
    bounds: List[List[Interval]] = []
    exact_paths = set()
    for position, f in enumerate(index.definition.fields):
        p = shape.predicate(f.path)
        intervals: List[Interval] = []
        if p is not None and p.is_constraining():
            if f.kind == GEOSPHERE:
                if p.geo_region is not None:
                    intervals = _geo_intervals(
                        index, p.geo_region, max_geo_ranges
                    )
                # eq/range predicates on a geo field give no bounds.
            elif f.kind == HASHED:
                from repro.docstore.index import hashed_value

                for v in p.eq_values:
                    intervals.append(Interval.point(hashed_value(v)))
                for v in p.in_values:
                    intervals.append(Interval.point(hashed_value(v)))
                intervals = _normalize_intervals(intervals)
            else:
                intervals = p.plain_intervals()
                if p.or_intervals:
                    intervals = _normalize_intervals(
                        intervals + list(p.or_intervals)
                    ) if intervals else list(p.or_intervals)
                if intervals and p.bounds_exact():
                    exact_paths.add(f.path)
        if not intervals:
            break
        bounds.append(intervals)
    if not bounds:
        return None
    return bounds, len(bounds), frozenset(exact_paths)


def _geo_intervals(
    index: Index, region: Any, max_geo_ranges: Optional[int]
) -> List[Interval]:
    bbox = region.bbox if isinstance(region, Polygon) else region
    ranges = covering_ranges(
        index.grid,
        bbox.min_lon,
        bbox.min_lat,
        bbox.max_lon,
        bbox.max_lat,
        max_ranges=max_geo_ranges,
    )
    return [
        Interval(bson.sort_key(r.lo), bson.sort_key(r.hi))
        for r in ranges
    ]


def estimate_plan(index: Index, bounds: List[List[Interval]]) -> Tuple[float, float]:
    """(estimated_cost, estimated_keys) for an index-bounds scan.

    Seek cost is charged for the *first* field's intervals only: the
    bounds-checker executor seeks once per first-field interval (a
    fragmented ``$geoWithin`` covering on the leading field is a seek
    storm), while deeper fields' intervals are enforced by per-key
    checks during the walk and add no seeks of their own.
    """
    n = float(len(index))
    if n == 0:
        return 0.0, 0.0
    keys = n
    for position, intervals in enumerate(bounds):
        stats = index.field_stats(position)
        fraction = sum(iv.width_fraction(stats) for iv in intervals)
        fraction = min(1.0, max(fraction, 1e-6))
        keys *= fraction
    seeks = float(len(bounds[0]))
    cost = keys + SEEK_COST * seeks
    return cost, keys


def plan_candidates(
    shape: QueryShape,
    indexes: Sequence[Index],
    max_geo_ranges: Optional[int] = None,
) -> List[IndexScanPlan]:
    """Every usable index-scan plan with its cost estimate."""
    candidates: List[IndexScanPlan] = []
    for index in indexes:
        built = build_bounds_for_index(index, shape, max_geo_ranges)
        if built is None:
            continue
        cost, keys = estimate_plan(index, built[0])
        candidates.append(IndexScanPlan.from_bounds(index, built, cost, keys))
    return candidates


def plan_query(
    shape: QueryShape,
    indexes: Sequence[Index],
    collection_size: int,
    hint: Optional[str] = None,
    max_geo_ranges: Optional[int] = None,
) -> IndexScanPlan | CollScanPlan:
    """Choose the cheapest plan among usable indexes and COLLSCAN."""
    if hint is not None:
        # A hint pins a unique index name, so there is nothing to rank:
        # skip cost estimation (whose per-interval selectivity sweep is
        # expensive for fragmented geo coverings) and return the single
        # usable plan directly.
        for index in indexes:
            if index.name != hint:
                continue
            built = build_bounds_for_index(index, shape, max_geo_ranges)
            if built is None:
                break
            return IndexScanPlan.from_bounds(index, built)
        raise PlanError("hinted index %r is not usable for this query" % hint)
    usable: List[Tuple[Index, Tuple]] = []
    for index in indexes:
        built = build_bounds_for_index(index, shape, max_geo_ranges)
        if built is not None:
            usable.append((index, built))
    if not usable:
        return CollScanPlan(estimated_cost=float(collection_size))
    if len(usable) == 1:
        # A single usable plan has no race to rank: skip the cost
        # estimate (a per-interval selectivity sweep that is expensive
        # for fragmented geo/Hilbert coverings).
        return IndexScanPlan.from_bounds(*usable[0])
    candidates = [
        IndexScanPlan.from_bounds(index, built, *estimate_plan(index, built[0]))
        for index, built in usable
    ]
    cheapest = min(p.estimated_cost for p in candidates)
    # MongoDB's trial-based ranking effectively treats plans of similar
    # productivity as ties and prefers the more specific one (more
    # bounded fields).  Mirror that: among plans within a small factor
    # of the cheapest, pick the most-bounded, then the cheapest.
    near_ties = [
        p for p in candidates if p.estimated_cost <= 3.0 * cheapest + 1.0
    ]
    best = min(
        near_ties,
        key=lambda p: (-p.n_bounded_fields, p.estimated_cost, p.index_name),
    )
    return best
