"""Predicate compilation: query documents → flat prepared closures.

A read filters every fetched document with its query, so the query is
compiled once (:class:`~repro.docstore.matcher.Matcher`) rather than
walked per document.  For the paper's workloads — a geo predicate, a
date range, and an ``$or`` of thousands of Hilbert ranges, filtered
over thousands of fetched documents — that walk would dominate query
CPU.  Compilation produces a flat list of prepared predicate closures:

* operator arguments are canonicalized at compile time (``sort_key``
  runs once per argument, not once per document per operator);
* ``$geoWithin``/``$geoIntersects`` regions are parsed once and their
  bounding boxes precomputed;
* ``$in`` lists are canonicalized and sorted for bisection;
* a single-path ``$or`` that :func:`~repro.docstore.planner.fold_or`
  folds exactly becomes one bisected :class:`_IntervalSetPredicate`;
  any other ``$or`` tests its clauses one by one;
* predicates are ordered cheapest-first (scalar comparisons, then
  interval sets, then geometry, then sub-clauses), so documents
  failing a cheap range never pay for polygon containment.

Compiling is validating: a malformed query — ``$in``/``$nin`` without
an array, a malformed ``$mod`` or one with divisor 0, an unknown
``$type`` alias, ``$not`` without an operator document, an unparseable
geo region, an argument BSON cannot encode — raises
:class:`~repro.errors.QueryError` here, as MongoDB rejects it when it
parses the query, before any document is tested.

Document values follow the match language's rules (the interpreter in
:mod:`repro.reference` states them plainly): candidates are
bracket-checked with ``type_rank`` (a raise there skips the candidate)
and then canonicalized with ``sort_key``, whose nested ``TypeError`` on
malformed stored values propagates as ``bson.compare``'s would.
"""

from __future__ import annotations

import datetime as _dt
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from typing import Any, Callable, List, Optional, Tuple

from repro.docstore import bson
from repro.docstore.document import MISSING, get_path
from repro.docstore.planner import (
    BOUND_OPS,
    OrFold,
    fold_or,
    geo_region,
    is_operator_expression,
    is_plain_sequence,
)
from repro.errors import QueryError
from repro.geo.geojson import parse_geometry
from repro.geo.geometry import BoundingBox, LineString, Point, Polygon

__all__ = [
    "compile_query",
    "all_of",
    "tag_or",
    "geo_test",
    "candidates",
    "TYPE_NAME_RANKS",
]

# Cost classes used to order the compiled conjunction (stable sort, so
# same-cost predicates keep query-document order).
_COST_SCALAR = 0
_COST_INTERVAL_SET = 1
_COST_GEO = 2
_COST_CLAUSES = 3

_Test = Callable[[Any], bool]
_Pred = Callable[[Mapping[str, Any]], bool]
#: ``(cost, predicate, label, droppable)``: ``label`` is the path the
#: predicate constrains (the operator name for ``$or``/``$nor``);
#: ``droppable`` is True when exact index bounds on that path prove it.
_Tagged = Tuple[int, _Pred, str, bool]

_LOGICAL = ("$and", "$or", "$nor")

TYPE_NAME_RANKS = {
    "null": bson.type_rank(None),
    "number": bson.type_rank(0),
    "double": bson.type_rank(0.0),
    "int": bson.type_rank(0),
    "long": bson.type_rank(0),
    "string": bson.type_rank(""),
    "object": bson.type_rank({}),
    "array": bson.type_rank([]),
    "bool": bson.type_rank(True),
    "date": bson.type_rank(_dt.datetime(2020, 1, 1)),
    "objectId": 7,
    "binData": 6,
}


def candidates(value: Any):
    """The value itself plus, for arrays, each element (MongoDB's
    any-element-matches rule)."""
    yield value
    if is_plain_sequence(value):
        yield from value


def all_of(predicates: List[_Pred]) -> _Pred:
    """One document predicate that holds when every one given does."""
    if len(predicates) == 1:
        return predicates[0]

    def conjunction(document: Mapping[str, Any]) -> bool:
        for predicate in predicates:
            if not predicate(document):
                return False
        return True

    return conjunction


class _IntervalSetPredicate:
    """A single-path ``$or`` folded exactly, matched by bisection.

    The Hilbert/ST-Hash query shape carries an ``$or`` with up to
    thousands of range clauses on one field; testing them clause by
    clause per document is quadratic in practice.  The fold sorts and
    merges the intervals once, so a scalar costs one bisection.  An
    array matches when an element lies in the intervals, or when its
    per-bracket hull meets a span (:class:`~repro.docstore.planner.OrFold`).
    """

    __slots__ = ("path", "intervals", "lows", "spans")

    def __init__(self, folded: OrFold) -> None:
        self.path = folded.path
        self.intervals = folded.intervals
        self.lows = [iv.lo for iv in folded.intervals]
        self.spans = folded.spans

    def contains(self, canon: Tuple) -> bool:
        """Whether a canonical key lies in one of the intervals."""
        position = bisect_right(self.lows, canon)
        if position == 0:
            return False
        iv = self.intervals[position - 1]
        if canon == iv.lo and not iv.lo_inclusive:
            return False
        return canon < iv.hi or (canon == iv.hi and iv.hi_inclusive)

    def hull_meets_span(self, low: Tuple, high: Tuple) -> bool:
        """Whether a span admits a value up to ``high`` at its lower end
        and a value from ``low`` at its upper end — what a range clause
        asks of an array whose bracket runs from ``low`` to ``high``."""
        position = bisect_right(self.lows, high)
        while position:
            position -= 1
            iv = self.intervals[position]
            if iv.hi < low or (iv.hi == low and not iv.hi_inclusive):
                return False
            if self.spans[position] and (iv.lo < high or iv.lo_inclusive):
                return True
        return False

    def matches(self, document: Mapping[str, Any]) -> bool:
        """Whether the document satisfies one clause of the ``$or``."""
        value = get_path(document, self.path)
        if value is MISSING:
            return False
        if not is_plain_sequence(value):
            try:
                return self.contains(bson.sort_key(value))
            except TypeError:
                return False
        hulls: dict = {}
        for candidate in candidates(value):
            try:
                canon = bson.sort_key(candidate)
            except TypeError:
                continue
            if self.contains(canon):
                return True
            hull = hulls.setdefault(canon[0], [canon, canon])
            if canon < hull[0]:
                hull[0] = canon
            elif canon > hull[1]:
                hull[1] = canon
        return any(self.hull_meets_span(lo, hi) for lo, hi in hulls.values())


def _tag_path_tests(path: str, ops, tests: List[_Test]) -> _Tagged:
    """The tagged document predicate for one path's operator tests.

    The single construction site for path predicates: both
    :func:`compile_query` and the parameterized-plan binder call it,
    so the droppable tag cannot drift between the two.
    """
    if len(tests) == 1 and "." not in path:
        only = tests[0]

        def predicate(document: Mapping[str, Any]) -> bool:
            # get_path's own first step, without the call.
            if type(document) is dict:
                return only(document.get(path, MISSING))
            return only(get_path(document, path))

    elif len(tests) == 1:
        only = tests[0]

        def predicate(document: Mapping[str, Any]) -> bool:
            return only(get_path(document, path))

    else:

        def predicate(document: Mapping[str, Any]) -> bool:
            actual = get_path(document, path)
            for test in tests:
                if not test(actual):
                    return False
            return True

    geo = "$geoWithin" in ops or "$geoIntersects" in ops
    cost = _COST_GEO if geo else _COST_SCALAR
    return cost, predicate, path, BOUND_OPS.issuperset(ops)


def _prepare_arg(arg: Any) -> Optional[Tuple]:
    """An operator argument's canonical key, computed once.

    None when the argument falls outside every comparison bracket
    (``type_rank`` raises): no document value compares with it, so the
    predicate is a constant.  An argument whose bracket is fine but
    whose nested parts have no place in the BSON order is malformed.
    """
    try:
        bson.type_rank(arg)
    except TypeError:
        return None
    try:
        return bson.sort_key(arg)
    except TypeError:
        # MongoDB: the driver cannot encode the query document
        # (bson.errors.InvalidDocument).
        raise QueryError(
            "operator argument %r cannot be encoded as BSON" % (arg,)
        ) from None


def _canon_eq(a: Tuple, b: Tuple) -> bool:
    """Equality under ``bson.compare`` (neither orders before the other).

    Deliberately not ``==``: ``bson.compare`` uses the ordering, whose
    ``TypeError`` on unorderable nested parts must propagate here
    exactly as it does there.
    """
    return not a < b and not b < a


def _candidate_canons(actual: Any, rank: int):
    """Canonical keys of the value's match candidates that share the
    argument's comparison bracket.

    ``type_rank`` failure or bracket mismatch skips the candidate, after
    which ``sort_key``'s nested ``TypeError`` on malformed stored values
    propagates just as ``bson.compare`` lets it.
    """
    for candidate in candidates(actual):
        try:
            crank = bson.type_rank(candidate)
        except TypeError:
            continue
        if crank != rank:
            continue
        yield bson.sort_key(candidate)


def _compile_eq_test(arg: Any, negate: bool) -> _Test:
    """``$eq`` (or a plain ``path: value`` item) / ``$ne``."""
    canon = _prepare_arg(arg)
    missing_matches = arg is None  # a missing field equals null only

    def test(actual: Any) -> bool:
        if actual is MISSING:
            hit = missing_matches
        elif canon is None:
            hit = False
        else:
            hit = any(
                _canon_eq(c, canon)
                for c in _candidate_canons(actual, canon[0])
            )
        return not hit if negate else hit

    return test


def _compile_in_test(op: str, arg: Any) -> _Test:
    """``$in`` / ``$nin`` with a canonicalized, bisectable member list."""
    if not is_plain_sequence(arg):
        # MongoDB: "$in needs an array" (BadValue).
        raise QueryError("%s needs an array, got %r" % (op, arg))
    negate = op == "$nin"
    has_none = any(a is None for a in arg)
    # An unorderable member never equals any document value.
    canons = [c for c in map(_prepare_arg, arg) if c is not None]
    ranks = frozenset(c[0] for c in canons)
    canons.sort()

    def member_hit(c: Tuple) -> bool:
        position = bisect_left(canons, c)
        return position < len(canons) and _canon_eq(canons[position], c)

    def test(actual: Any) -> bool:
        if actual is MISSING:
            hit = has_none
        else:
            hit = False
            for candidate in candidates(actual):
                try:
                    crank = bson.type_rank(candidate)
                except TypeError:
                    continue
                if crank not in ranks:
                    continue
                if member_hit(bson.sort_key(candidate)):
                    hit = True
                    break
        return not hit if negate else hit

    return test


def _compile_order_test(op: str, arg: Any) -> _Test:
    """``$gt``/``$gte``/``$lt``/``$lte`` against one argument."""
    canon = _prepare_arg(arg)
    if canon is None:
        return lambda actual: False  # no candidate shares the bracket
    rank = canon[0]
    want_gt = op in ("$gt", "$gte")
    strict = op in ("$gt", "$lt")

    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        for c in _candidate_canons(actual, rank):
            if want_gt:
                hit = c > canon if strict else not c < canon
            else:
                hit = c < canon if strict else not c > canon
            if hit:
                return True
        return False

    return test


def _rect_box(region: Any) -> Optional[BoundingBox]:
    """The region's bounding box when the region is that box.

    True for a :class:`BoundingBox` and for a Polygon whose ring is a
    simple closed axis-aligned rectangle (4 distinct corners, 2
    distinct longitudes/latitudes, every edge axis-parallel) — the
    shape every ``$geoWithin: {$geometry: ...}`` rectangle renders to.
    For such a ring the even-odd test with inclusive boundaries equals
    the inclusive box test, so the swap is exact.  Returns None for
    anything else (general polygons keep the per-point ring walk).
    """
    if isinstance(region, BoundingBox):
        return region
    ring = getattr(region, "ring", None)
    if ring is None or len(ring) != 5 or len(set(ring[:4])) != 4:
        return None
    if len({p.lon for p in ring}) != 2 or len({p.lat for p in ring}) != 2:
        return None
    for a, b in zip(ring, ring[1:]):
        if a.lon != b.lon and a.lat != b.lat:
            return None
    return region.bbox


def geo_test(region: Any, intersects: bool) -> _Test:
    """The geo value test for an already-parsed region.

    The parameterized-plan binder (:mod:`repro.docstore.paramplan`)
    parses a query's region once and shares it between the planner
    shape and this test.
    """
    general = _parsed_geo_test(region, intersects)
    rect = _rect_box(region)
    if rect is None:
        return general
    min_lon, min_lat = rect.min_lon, rect.min_lat
    max_lon, max_lat = rect.max_lon, rect.max_lat

    def test(actual: Any) -> bool:
        # The dominant stored shape — a GeoJSON Point with two in-range
        # float coordinates — is two interval tests against the box,
        # with no per-document ``parse_geometry`` (which allocates a
        # validated Point).  Everything else takes the general test.
        if type(actual) is dict and actual.get("type") == "Point":
            coords = actual.get("coordinates")
            if type(coords) is list and len(coords) == 2:
                lon, lat = coords
                if (
                    type(lon) is float
                    and type(lat) is float
                    and -180.0 <= lon <= 180.0
                    and -90.0 <= lat <= 90.0
                ):
                    return min_lon <= lon <= max_lon and min_lat <= lat <= max_lat
        return general(actual)

    return test


def _parsed_geo_test(region: Any, intersects: bool) -> _Test:
    """The geo value test for any stored value: parse, then test."""
    box = region if isinstance(region, BoundingBox) else region.bbox
    region_contains = region.contains

    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        try:
            geometry = parse_geometry(actual)
        except Exception:
            return False
        if isinstance(geometry, Point):
            return region_contains(geometry)
        if isinstance(geometry, LineString):
            if intersects:
                return geometry.intersects_box(box)
            return all(region_contains(p) for p in geometry.points)
        if isinstance(geometry, Polygon):
            if intersects:
                return geometry.intersects_box(box)
            return all(region_contains(p) for p in geometry.ring)
        return False

    return test


def _compile_mod_test(arg: Any) -> _Test:
    try:
        divisor, remainder = arg
        d = int(divisor)
        r = int(remainder)
    except (TypeError, ValueError, OverflowError):
        # MongoDB: "malformed mod, not enough elements" (BadValue).
        raise QueryError(
            "malformed $mod %r: needs [divisor, remainder]" % (arg,)
        ) from None
    if d == 0:
        # MongoDB: "divisor cannot be 0" (BadValue).
        raise QueryError("$mod divisor cannot be 0")

    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        return any(
            isinstance(c, (int, float))
            and not isinstance(c, bool)
            and int(c) % d == r
            for c in candidates(actual)
        )

    return test


def _compile_size_test(arg: Any) -> _Test:
    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        return is_plain_sequence(actual) and len(actual) == arg

    return test


def _compile_type_test(arg: Any) -> _Test:
    try:
        rank = TYPE_NAME_RANKS[arg]
    except (KeyError, TypeError):
        # MongoDB: "unknown type name alias" (BadValue).
        raise QueryError("unknown $type alias %r" % (arg,)) from None

    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        return bson.type_rank(actual) == rank

    return test


def _compile_exists_test(arg: Any) -> _Test:
    want = bool(arg)

    def test(actual: Any) -> bool:
        return (actual is not MISSING) == want

    return test


def _compile_not_test(arg: Any) -> _Test:
    if not isinstance(arg, Mapping):
        # MongoDB: "$not needs a regex or a document" (BadValue).
        raise QueryError("$not needs an operator document, got %r" % (arg,))
    inner = [_compile_operator(op, op_arg) for op, op_arg in arg.items()]

    def negated(actual: Any) -> bool:
        return not all(test(actual) for test in inner)

    return negated


def _compile_operator(op: str, arg: Any) -> _Test:
    """One operator → a prepared value test, or QueryError."""
    if op == "$exists":
        return _compile_exists_test(arg)
    if op == "$not":
        return _compile_not_test(arg)
    if op in ("$geoWithin", "$geoIntersects"):
        return geo_test(geo_region(arg), intersects=op == "$geoIntersects")
    if op == "$eq":
        return _compile_eq_test(arg, negate=False)
    if op == "$ne":
        return _compile_eq_test(arg, negate=True)
    if op in ("$in", "$nin"):
        return _compile_in_test(op, arg)
    if op in ("$gt", "$gte", "$lt", "$lte"):
        return _compile_order_test(op, arg)
    if op == "$mod":
        return _compile_mod_test(arg)
    if op == "$size":
        return _compile_size_test(arg)
    if op == "$type":
        return _compile_type_test(arg)
    raise QueryError("unsupported operator %r" % (op,))


def _compile_path_predicate(path: str, value: Any) -> _Tagged:
    """One ``path: value`` item → a tagged document predicate."""
    ops = value if is_operator_expression(value) else {"$eq": value}
    tests = [_compile_operator(op, arg) for op, arg in ops.items()]
    return _tag_path_tests(path, ops, tests)


def _clause_predicates(clauses: Any) -> List[_Pred]:
    """Each clause of a logical operator → one conjunction predicate."""
    return [all_of(_cheapest_first(compile_query(c))) for c in clauses]


def _cheapest_first(tagged: List[_Tagged]) -> List[_Pred]:
    return [item[1] for item in sorted(tagged, key=lambda item: item[0])]


def tag_or(clauses: Any, folded: Optional[OrFold]) -> _Tagged:
    """The tagged predicate for an ``$or`` whose fold is ``folded``.

    An exact fold is one interval set on its path, droppable where the
    planner proves the path; any other ``$or`` tests its clauses one by
    one and is never dropped.
    """
    if folded is not None and folded.exact:
        interval_set = _IntervalSetPredicate(folded)
        return _COST_INTERVAL_SET, interval_set.matches, folded.path, True
    clause_preds = _clause_predicates(clauses)

    def any_clause(document: Mapping[str, Any]) -> bool:
        for predicate in clause_preds:
            if predicate(document):
                return True
        return False

    return _COST_CLAUSES, any_clause, "$or", False


def compile_query(query: Any) -> List[_Tagged]:
    """A query document → its tagged top-level predicates.

    Raises :class:`QueryError` for a malformed query.  ``$and`` clauses
    flatten into the list (they stay droppable); a ``$nor``, and an
    ``$or`` that is not one interval set, collapses into one
    undroppable predicate, so nested tags never reach the residual
    decision.
    """
    if not isinstance(query, Mapping):
        raise QueryError("query must be a document, got %r" % (query,))
    tagged: List[_Tagged] = []
    for key, value in query.items():
        if key in _LOGICAL:
            if not is_plain_sequence(value):
                raise QueryError("%s expects an array of clauses" % key)
            if key == "$and":
                for clause in value:
                    tagged.extend(compile_query(clause))
            elif key == "$or":
                tagged.append(tag_or(value, fold_or(value)))
            else:
                clause_preds = _clause_predicates(value)

                def no_clause(
                    document: Mapping[str, Any], clause_preds=clause_preds
                ) -> bool:
                    for predicate in clause_preds:
                        if predicate(document):
                            return False
                    return True

                tagged.append((_COST_CLAUSES, no_clause, key, False))
        elif key.startswith("$"):
            raise QueryError("unsupported top-level operator %r" % key)
        else:
            tagged.append(_compile_path_predicate(key, value))
    return tagged
