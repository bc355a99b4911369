"""Predicate compilation: query documents → flat prepared closures.

The tree-walking :class:`~repro.docstore.matcher.Matcher` re-interprets
the query document for every candidate document: it re-dispatches on
operator names, re-canonicalizes operator arguments through
:func:`repro.docstore.bson.sort_key`, and — worst of all — re-parses
the ``$geoWithin`` GeoJSON region *per document*.  For the paper's
workloads (a geo predicate, a date range, and an ``$or`` of thousands
of Hilbert ranges, filtered over thousands of fetched documents) that
interpretation dominates query CPU.

This module compiles a validated query document **once** into a flat
list of prepared predicate closures:

* operator arguments are canonicalized at compile time (``sort_key``
  runs once per argument, not once per document per operator);
* ``$geoWithin``/``$geoIntersects`` regions are parsed once and their
  bounding boxes precomputed;
* ``$in`` lists are canonicalized and sorted for bisection;
* single-path ``$or`` interval sets reuse the matcher's compiled
  :class:`~repro.docstore.matcher._IntervalSetPredicate`;
* predicates are ordered cheapest-first (scalar comparisons, then
  interval sets, then geometry, then sub-clauses), so documents
  failing a cheap range never pay for polygon containment.

Compilation is *all or nothing*: any construct whose interpretation is
argument-dependent in a way the compiled form cannot reproduce exactly
— malformed ``$mod``/``$in`` arguments, unknown ``$type`` aliases,
non-mapping ``$not`` arguments, unparseable geo regions, operator
arguments whose canonicalization raises lazily — makes
:func:`compile_matcher` return ``None`` and the caller keeps the
interpreter, guaranteeing parity including lazily raised errors.

Raise parity on *document* values is preserved the same way the
interpreter behaves: candidates are bracket-checked with ``type_rank``
(a raise there skips the candidate) and then canonicalized with
``sort_key``, whose nested ``TypeError`` on malformed stored values
propagates exactly as ``bson.compare`` would.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.docstore import bson
from repro.docstore.document import MISSING, get_path
from repro.docstore.planner import BOUND_OPS
from repro.geo.geojson import parse_geometry
from repro.geo.geometry import BoundingBox, LineString, Point, Polygon

__all__ = ["compile_matcher", "CompiledPredicateList", "_geo_test_from_region"]

# Cost classes used to order the compiled conjunction (stable sort, so
# same-cost predicates keep query-document order).
_COST_SCALAR = 0
_COST_INTERVAL_SET = 1
_COST_GEO = 2
_COST_CLAUSES = 3

_OK = 0  # argument canonicalized
_UNORDERABLE = 1  # type_rank raises: no document value is comparable
_FALLBACK = 2  # type_rank fine, sort_key raises lazily: keep interpreter

_Test = Callable[[Any], bool]
_Pred = Callable[[Mapping[str, Any]], bool]
#: ``(cost, predicate, label, droppable)``: ``label`` is the path the
#: predicate constrains (the operator name for ``$or``/``$nor``);
#: ``droppable`` is True when exact index bounds on that path prove it.
_Tagged = Tuple[int, _Pred, str, bool]


class CompiledPredicateList:
    """A compiled conjunction: documents match when every closure does."""

    __slots__ = ("predicates", "paths", "_droppable", "_residuals")

    def __init__(self, tagged: List[_Tagged]) -> None:
        tagged = sorted(tagged, key=lambda item: item[0])  # cheapest first
        self.predicates = [item[1] for item in tagged]
        self.paths = [item[2] for item in tagged]
        self._droppable = [item[3] for item in tagged]
        self._residuals: dict = {}

    def __call__(self, document: Mapping[str, Any]) -> bool:
        for predicate in self.predicates:
            if not predicate(document):
                return False
        return True

    def residual(self, covered) -> "CompiledPredicateList":
        """The conjunction minus predicates index bounds already proved.

        ``covered`` is the set of paths whose bounds the planner found
        exact (:attr:`IndexScanPlan.covered_paths`): every fetched
        document satisfies the droppable predicates on those paths, so
        FETCH evaluates only the rest.  Memoised per covered set — one
        matcher serves every targeted shard of a query.
        """
        rest = self._residuals.get(covered)
        if rest is None:
            rest = CompiledPredicateList(
                [
                    (0, predicate, path, droppable)
                    for predicate, path, droppable in zip(
                        self.predicates, self.paths, self._droppable
                    )
                    if not (droppable and path in covered)
                ]
            )
            self._residuals[covered] = rest
        return rest


def _tag_path_tests(path: str, ops, tests: List[_Test]) -> _Tagged:
    """The tagged document predicate for one path's operator tests.

    The single construction site for path predicates: both
    :func:`compile_matcher` and the parameterized-plan binder call it,
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


def _tag_interval_set(interval_set: Any) -> _Tagged:
    """The tagged predicate for a single-path ``$or`` interval set."""
    return _COST_INTERVAL_SET, interval_set.matches, interval_set.path, True


def _prepare_arg(arg: Any) -> Tuple[int, Any]:
    """Canonicalize an operator argument at compile time.

    Distinguishes "outside every comparison bracket" (the interpreter's
    ``_comparable`` is constantly False: the predicate is a constant)
    from "bracket is fine but canonicalization raises" (the interpreter
    raises per document whenever a candidate shares the bracket; only
    the interpreter reproduces that, so compilation must bail).
    """
    try:
        bson.type_rank(arg)
    except TypeError:
        return _UNORDERABLE, None
    try:
        return _OK, bson.sort_key(arg)
    except TypeError:
        return _FALLBACK, None


def _canon_eq(a: Tuple, b: Tuple) -> bool:
    """Equality under ``bson.compare`` (neither orders before the other).

    Deliberately not ``==``: the interpreter's ``_values_equal`` uses
    the ordering, whose ``TypeError`` on unorderable nested parts must
    propagate here exactly as it does there.
    """
    return not a < b and not b < a


def _candidate_canons(actual: Any, rank: int):
    """Canonical keys of the value's match candidates that share the
    argument's comparison bracket.

    Mirrors the interpreter exactly: ``type_rank`` failure or bracket
    mismatch skips the candidate (``_comparable`` → False), after which
    ``sort_key``'s nested ``TypeError`` on malformed stored values
    propagates just as ``bson.compare`` lets it.
    """
    from repro.docstore.matcher import _candidates

    for candidate in _candidates(actual):
        try:
            crank = bson.type_rank(candidate)
        except TypeError:
            continue
        if crank != rank:
            continue
        yield bson.sort_key(candidate)


def _compile_eq_test(arg: Any, negate: bool) -> Optional[_Test]:
    """``$eq`` (or a plain ``path: value`` item) / ``$ne``."""
    status, canon = _prepare_arg(arg)
    if status == _FALLBACK:
        return None
    missing_matches = arg is None  # a missing field equals null only
    rank = canon[0] if status == _OK else -1

    def test(actual: Any) -> bool:
        if actual is MISSING:
            hit = missing_matches
        elif status == _UNORDERABLE:
            hit = False
        else:
            hit = any(
                _canon_eq(c, canon)
                for c in _candidate_canons(actual, rank)
            )
        return not hit if negate else hit

    return test


def _compile_in_test(arg: Any, negate: bool) -> Optional[_Test]:
    """``$in`` / ``$nin`` with a canonicalized, bisectable member list."""
    if not isinstance(arg, Sequence) or isinstance(arg, (str, bytes)):
        return None  # the interpreter raises QueryError lazily
    has_none = any(a is None for a in arg)
    canons = []
    for member in arg:
        status, canon = _prepare_arg(member)
        if status == _FALLBACK:
            return None  # the interpreter raises per document
        if status == _UNORDERABLE:
            continue  # never equals any document value
        canons.append(canon)
    ranks = frozenset(c[0] for c in canons)
    canons.sort()

    def member_hit(c: Tuple) -> bool:
        position = bisect_left(canons, c)
        return position < len(canons) and _canon_eq(canons[position], c)

    def test(actual: Any) -> bool:
        if actual is MISSING:
            hit = has_none
        else:
            from repro.docstore.matcher import _candidates

            hit = False
            for candidate in _candidates(actual):
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


def _compile_order_test(op: str, arg: Any) -> Optional[_Test]:
    """``$gt``/``$gte``/``$lt``/``$lte`` against one argument."""
    status, canon = _prepare_arg(arg)
    if status == _FALLBACK:
        return None
    if status == _UNORDERABLE:
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


def _compile_geo_test(arg: Any, intersects: bool) -> Optional[_Test]:
    """``$geoWithin``/``$geoIntersects`` with a pre-parsed region."""
    from repro.docstore.matcher import _geo_region

    try:
        region = _geo_region(arg)
    except Exception:
        return None  # the interpreter raises per matches() call
    return _geo_test_from_region(region, intersects)


def _geo_test_from_region(region: Any, intersects: bool) -> _Test:
    """The geo value test for an already-parsed region.

    Split out of :func:`_compile_geo_test` so the parameterized-plan
    binder (:mod:`repro.docstore.paramplan`) can parse a query's region
    once and share it between the planner shape and the compiled test.
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


def _compile_mod_test(arg: Any) -> Optional[_Test]:
    try:
        divisor, remainder = arg
        d = int(divisor)
        r = int(remainder)
    except (TypeError, ValueError, OverflowError):
        return None  # the interpreter raises per matches() call
    if d == 0:
        return None  # ZeroDivisionError must stay lazily raised

    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        from repro.docstore.matcher import _candidates

        return any(
            isinstance(c, (int, float))
            and not isinstance(c, bool)
            and int(c) % d == r
            for c in _candidates(actual)
        )

    return test


def _compile_size_test(arg: Any) -> _Test:
    def test(actual: Any) -> bool:
        if actual is MISSING:
            return False
        return (
            isinstance(actual, Sequence)
            and not isinstance(actual, (str, bytes))
            and len(actual) == arg
        )

    return test


def _compile_type_test(arg: Any) -> Optional[_Test]:
    from repro.docstore.matcher import _TYPE_NAME_RANKS

    try:
        rank = _TYPE_NAME_RANKS[arg]
    except (KeyError, TypeError):
        return None  # unknown alias: the interpreter raises lazily

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


def _compile_not_test(arg: Any) -> Optional[_Test]:
    if not isinstance(arg, Mapping):
        return None  # the interpreter raises QueryError lazily
    inner: List[_Test] = []
    for op, op_arg in arg.items():
        test = _compile_operator(op, op_arg)
        if test is None:
            return None
        inner.append(test)

    def negated(actual: Any) -> bool:
        return not all(test(actual) for test in inner)

    return negated


def _compile_operator(op: str, arg: Any) -> Optional[_Test]:
    """One operator → a prepared value test, or None → fall back."""
    if op == "$exists":
        return _compile_exists_test(arg)
    if op == "$not":
        return _compile_not_test(arg)
    if op in ("$geoWithin", "$geoIntersects"):
        return _compile_geo_test(arg, intersects=op == "$geoIntersects")
    if op == "$eq":
        return _compile_eq_test(arg, negate=False)
    if op == "$ne":
        return _compile_eq_test(arg, negate=True)
    if op == "$in":
        return _compile_in_test(arg, negate=False)
    if op == "$nin":
        return _compile_in_test(arg, negate=True)
    if op in ("$gt", "$gte", "$lt", "$lte"):
        return _compile_order_test(op, arg)
    if op == "$mod":
        return _compile_mod_test(arg)
    if op == "$size":
        return _compile_size_test(arg)
    if op == "$type":
        return _compile_type_test(arg)
    return None  # unsupported: the interpreter raises per call


def _compile_path_predicate(path: str, value: Any) -> Optional[_Tagged]:
    """One ``path: value`` item → a tagged document predicate."""
    from repro.docstore.matcher import is_operator_expression

    ops = value if is_operator_expression(value) else {"$eq": value}
    tests: List[_Test] = []
    for op, arg in ops.items():
        test = _compile_operator(op, arg)
        if test is None:
            return None
        tests.append(test)
    return _tag_path_tests(path, ops, tests)


def _compile_clause_list(
    clauses: Any, compiled_ors: Mapping[int, Any]
) -> Optional[List[_Pred]]:
    """Each clause of a logical operator → one conjunction predicate."""
    out: List[_Pred] = []
    for clause in clauses:
        tagged = _compile_query(clause, compiled_ors)
        if tagged is None:
            return None
        out.append(CompiledPredicateList(tagged))
    return out


def _compile_query(
    query: Mapping[str, Any], compiled_ors: Mapping[int, Any]
) -> Optional[List[_Tagged]]:
    """A (validated) query document → its tagged top-level predicates.

    ``$and`` clauses flatten into the list (they stay droppable);
    anything under ``$or``/``$nor`` collapses into one undroppable
    predicate, so nested tags never reach the residual decision.
    """
    if not isinstance(query, Mapping):
        return None
    tagged: List[_Tagged] = []
    for key, value in query.items():
        if key == "$and":
            for clause in value:
                sub = _compile_query(clause, compiled_ors)
                if sub is None:
                    return None
                tagged.extend(sub)
        elif key == "$or":
            interval_set = compiled_ors.get(id(value))
            if interval_set is not None:
                tagged.append(_tag_interval_set(interval_set))
                continue
            clause_preds = _compile_clause_list(value, compiled_ors)
            if clause_preds is None:
                return None

            def any_predicate(
                document: Mapping[str, Any], clause_preds=clause_preds
            ) -> bool:
                for predicate in clause_preds:
                    if predicate(document):
                        return True
                return False

            tagged.append((_COST_CLAUSES, any_predicate, key, False))
        elif key == "$nor":
            clause_preds = _compile_clause_list(value, compiled_ors)
            if clause_preds is None:
                return None

            def none_predicate(
                document: Mapping[str, Any], clause_preds=clause_preds
            ) -> bool:
                for predicate in clause_preds:
                    if predicate(document):
                        return False
                return True

            tagged.append((_COST_CLAUSES, none_predicate, key, False))
        else:
            item = _compile_path_predicate(key, value)
            if item is None:
                return None
            tagged.append(item)
    return tagged


def compile_matcher(
    query: Mapping[str, Any], compiled_ors: Mapping[int, Any]
) -> Optional[CompiledPredicateList]:
    """Compile a validated query document, or None → use the interpreter.

    ``compiled_ors`` is the matcher's ``id($or value) →
    _IntervalSetPredicate`` table, so both execution paths share one
    interval-set compilation and agree on which ``$or`` forms are
    bisectable.
    """
    tagged = _compile_query(query, compiled_ors)
    if tagged is None:
        return None
    return CompiledPredicateList(tagged)
