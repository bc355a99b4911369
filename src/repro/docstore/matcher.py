"""Query-document evaluation (the MongoDB match language).

This module answers "does this document satisfy this query?" for the
operator subset the paper's workloads need — comparison operators,
``$in``, logical ``$and``/``$or``/``$nor``/``$not``, ``$exists``, and
the spatial ``$geoWithin`` — plus array-element semantics so the store
behaves like MongoDB on realistic documents.

Comparison operators are *type-bracketed* as in MongoDB: ``{$gt: 5}``
never matches a string, because values of different BSON types do not
compare in queries (they do in index/sort order, which is separate).
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Mapping
from typing import Any, Sequence

from repro.docstore import bson
from repro.docstore.document import MISSING, get_path
from repro.errors import QueryError
from repro.geo.geojson import parse_geometry
from repro.geo.geometry import BoundingBox, Polygon

__all__ = ["matches", "Matcher", "is_operator_expression"]

_LOGICAL = {"$and", "$or", "$nor"}
_COMPARISON = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin"}
_SUPPORTED = _COMPARISON | {
    "$exists",
    "$not",
    "$geoWithin",
    "$geoIntersects",
    "$mod",
    "$size",
    "$type",
}


def is_operator_expression(value: Any) -> bool:
    """True when a predicate value is an operator doc like ``{$gte: 3}``."""
    return isinstance(value, Mapping) and any(
        isinstance(k, str) and k.startswith("$") for k in value
    )


def _comparable(a: Any, b: Any) -> bool:
    """Whether two values fall in the same comparison bracket."""
    try:
        return bson.type_rank(a) == bson.type_rank(b)
    except TypeError:
        return False


def _values_equal(a: Any, b: Any) -> bool:
    if not _comparable(a, b):
        return False
    return bson.compare(a, b) == 0


def _candidates(value: Any):
    """The value itself plus, for arrays, each element (MongoDB's
    any-element-matches rule)."""
    yield value
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        yield from value


class _IntervalSetPredicate:
    """A compiled single-path ``$or`` of ranges, matched by bisection.

    The Hilbert/ST-Hash query shape carries an ``$or`` with up to
    thousands of range clauses on one field; evaluating them clause by
    clause per document is quadratic in practice.  Compilation sorts
    the (canonical) intervals once so each document costs ``O(log n)``.
    """

    __slots__ = ("path", "intervals", "lows")

    def __init__(self, path: str, intervals: list) -> None:
        self.path = path
        self.intervals = intervals  # [(lo, hi, lo_incl, hi_incl)], sorted
        self.lows = [iv[0] for iv in intervals]

    def matches_value(self, canon) -> bool:
        import bisect as _bisect

        position = _bisect.bisect_right(self.lows, canon)
        if position == 0:
            return False
        lo, hi, lo_incl, hi_incl = self.intervals[position - 1]
        if canon == lo and not lo_incl:
            return False
        if canon < hi:
            return True
        return canon == hi and hi_incl

    def matches(self, document: Mapping[str, Any]) -> bool:
        value = get_path(document, self.path)
        if value is MISSING:
            return False
        for candidate in _candidates(value):
            try:
                canon = bson.sort_key(candidate)
            except TypeError:
                continue
            if self.matches_value(canon):
                return True
        return False


def _compile_or_intervals(clauses) -> "Optional[_IntervalSetPredicate]":
    """Compile a single-path $or of eq/in/range clauses, or None."""
    path = None
    intervals = []
    for clause in clauses:
        if not isinstance(clause, Mapping) or len(clause) != 1:
            return None
        ((cpath, value),) = clause.items()
        if cpath.startswith("$"):
            return None
        if path is None:
            path = cpath
        elif path != cpath:
            return None
        if not is_operator_expression(value):
            return None
        gt = lt = None
        gt_incl = lt_incl = True
        points = []
        for op, arg in value.items():
            if op == "$gte":
                gt, gt_incl = arg, True
            elif op == "$gt":
                gt, gt_incl = arg, False
            elif op == "$lte":
                lt, lt_incl = arg, True
            elif op == "$lt":
                lt, lt_incl = arg, False
            elif op in ("$eq",):
                points.append(arg)
            elif op == "$in":
                points.extend(arg)
            else:
                return None
        try:
            if gt is not None or lt is not None:
                if gt is None or lt is None or points:
                    return None  # half-open ranges: keep generic path
                intervals.append(
                    (bson.sort_key(gt), bson.sort_key(lt), gt_incl, lt_incl)
                )
            else:
                for p in points:
                    if p is None:
                        return None  # null-matching needs MISSING rules
                    canon = bson.sort_key(p)
                    intervals.append((canon, canon, True, True))
        except TypeError:
            return None
    if path is None or not intervals:
        return None
    intervals.sort()
    # $or is a union: merge overlapping intervals so bisection can
    # consider only the nearest one.
    merged = []
    for lo, hi, lo_incl, hi_incl in intervals:
        if merged:
            mlo, mhi, mlo_incl, mhi_incl = merged[-1]
            if lo < mhi or (lo == mhi and (lo_incl or mhi_incl)):
                new_hi, new_hi_incl = max(
                    (mhi, mhi_incl), (hi, hi_incl)
                )
                merged[-1] = (mlo, new_hi, mlo_incl, new_hi_incl)
                continue
        merged.append((lo, hi, lo_incl, hi_incl))
    return _IntervalSetPredicate(path, merged)


class Matcher:
    """A compiled query document.

    Compilation validates the query once and pre-compiles large
    single-path ``$or`` clauses into bisectable interval sets;
    ``matches`` can then be called per document cheaply, which matters
    when the executor filters thousands of fetched documents.
    """

    def __init__(self, query: Mapping[str, Any]) -> None:
        if not isinstance(query, Mapping):
            raise QueryError("query must be a mapping, got %r" % (query,))
        self._query = query
        self._validate(query)
        self._compiled_ors: dict = {}
        for key, value in query.items():
            if key == "$or" and isinstance(value, Sequence):
                compiled = _compile_or_intervals(value)
                if compiled is not None:
                    self._compiled_ors[id(value)] = compiled
        # Imported lazily: the compiler module depends on this one.
        from repro.docstore.compiler import compile_matcher

        # All-or-nothing: None leaves the interpreter in charge.
        self._compiled = compile_matcher(query, self._compiled_ors)

    @classmethod
    def interpreted(cls, query: Mapping[str, Any]) -> "Matcher":
        """The same matcher with its compiled form discarded.

        The tree-walking interpreter then tests the whole query on
        every document and :meth:`residual` drops nothing — what the
        oracle (:mod:`repro.reference`) filters with.
        """
        self = cls(query)
        self._compiled = None
        return self

    @classmethod
    def from_compiled(
        cls,
        query: Mapping[str, Any],
        compiled_ors: dict,
        compiled,
    ) -> "Matcher":
        """Construct a matcher around an externally compiled predicate.

        The parameterized-plan binder
        (:mod:`repro.docstore.paramplan`) builds the compiled
        conjunction itself while binding a cached plan template, so
        validation and recompilation are skipped — the binder only
        emits forms :meth:`__init__` would have accepted and compiled
        identically.
        """
        self = cls.__new__(cls)
        self._query = query
        self._compiled_ors = compiled_ors
        self._compiled = compiled
        return self

    def _validate(self, query: Mapping[str, Any]) -> None:
        for key, value in query.items():
            if key in _LOGICAL:
                if not isinstance(value, Sequence) or isinstance(
                    value, (str, bytes)
                ):
                    raise QueryError("%s expects an array of clauses" % key)
                for clause in value:
                    self._validate(clause)
            elif key.startswith("$"):
                raise QueryError("unsupported top-level operator %r" % key)
            elif is_operator_expression(value):
                for op in value:
                    if op not in _SUPPORTED:
                        raise QueryError("unsupported operator %r" % op)

    def matches(self, document: Mapping[str, Any]) -> bool:
        """Whether a document satisfies the compiled query."""
        if self._compiled is not None:
            return self._compiled(document)
        return self._match_query(self._query, document)

    def residual(self, covered_paths):
        """The per-document FETCH filter, given index-proved paths.

        With a compiled conjunction, the predicates that exact index
        bounds on ``covered_paths`` already imply are dropped (MongoDB's
        FETCH ``filter``); the interpreter always tests the whole query.
        """
        if self._compiled is None:
            return self.matches
        return self._compiled.residual(covered_paths)

    def residual_paths(self, covered_paths) -> list:
        """Sorted paths (or logical operators) :meth:`residual` tests."""
        if self._compiled is None:
            return sorted(set(_top_level_paths(self._query)))
        return sorted(set(self._compiled.residual(covered_paths).paths))

    # -- internals ----------------------------------------------------------

    def _match_query(
        self, query: Mapping[str, Any], document: Mapping[str, Any]
    ) -> bool:
        for key, value in query.items():
            if key == "$and":
                if not all(self._match_query(c, document) for c in value):
                    return False
            elif key == "$or":
                compiled = self._compiled_ors.get(id(value))
                if compiled is not None:
                    if not compiled.matches(document):
                        return False
                elif not any(self._match_query(c, document) for c in value):
                    return False
            elif key == "$nor":
                if any(self._match_query(c, document) for c in value):
                    return False
            elif is_operator_expression(value):
                if not self._match_operators(document, key, value):
                    return False
            else:
                if not self._match_eq(document, key, value):
                    return False
        return True

    def _match_eq(
        self, document: Mapping[str, Any], path: str, expected: Any
    ) -> bool:
        actual = get_path(document, path)
        if actual is MISSING:
            return expected is None
        return any(_values_equal(c, expected) for c in _candidates(actual))

    def _match_operators(
        self, document: Mapping[str, Any], path: str, ops: Mapping[str, Any]
    ) -> bool:
        actual = get_path(document, path)
        for op, arg in ops.items():
            if not self._apply_operator(actual, op, arg, document, path):
                return False
        return True

    def _apply_operator(
        self,
        actual: Any,
        op: str,
        arg: Any,
        document: Mapping[str, Any],
        path: str,
    ) -> bool:
        if op == "$exists":
            present = actual is not MISSING
            return present == bool(arg)
        if op == "$not":
            if not isinstance(arg, Mapping):
                raise QueryError("$not expects an operator document")
            return not self._apply_all(actual, arg, document, path)
        if op in ("$geoWithin", "$geoIntersects"):
            return self._match_geo(
                actual, arg, intersects=op == "$geoIntersects"
            )

        if actual is MISSING:
            # Missing fields only match null equality / $ne / $nin.
            if op == "$eq":
                return arg is None
            if op == "$ne":
                return not _values_equal_missing(arg)
            if op == "$in":
                return any(a is None for a in arg)
            if op == "$nin":
                return not any(a is None for a in arg)
            return False

        candidates = list(_candidates(actual))
        if op == "$eq":
            return any(_values_equal(c, arg) for c in candidates)
        if op == "$ne":
            return not any(_values_equal(c, arg) for c in candidates)
        if op == "$in":
            if not isinstance(arg, Sequence) or isinstance(arg, (str, bytes)):
                raise QueryError("$in expects an array")
            return any(
                _values_equal(c, a) for c in candidates for a in arg
            )
        if op == "$nin":
            if not isinstance(arg, Sequence) or isinstance(arg, (str, bytes)):
                raise QueryError("$nin expects an array")
            return not any(
                _values_equal(c, a) for c in candidates for a in arg
            )
        if op in ("$gt", "$gte", "$lt", "$lte"):
            for c in candidates:
                if not _comparable(c, arg):
                    continue
                cmp = bson.compare(c, arg)
                if op == "$gt" and cmp > 0:
                    return True
                if op == "$gte" and cmp >= 0:
                    return True
                if op == "$lt" and cmp < 0:
                    return True
                if op == "$lte" and cmp <= 0:
                    return True
            return False
        if op == "$mod":
            divisor, remainder = arg
            return any(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                and int(c) % int(divisor) == int(remainder)
                for c in candidates
            )
        if op == "$size":
            return (
                isinstance(actual, Sequence)
                and not isinstance(actual, (str, bytes))
                and len(actual) == arg
            )
        if op == "$type":
            try:
                return bson.type_rank(actual) == _TYPE_NAME_RANKS[arg]
            except KeyError:
                raise QueryError("unknown $type alias %r" % (arg,)) from None
        raise QueryError("unsupported operator %r" % op)

    def _apply_all(
        self,
        actual: Any,
        ops: Mapping[str, Any],
        document: Mapping[str, Any],
        path: str,
    ) -> bool:
        return all(
            self._apply_operator(actual, op, arg, document, path)
            for op, arg in ops.items()
        )

    def _match_geo(self, actual: Any, arg: Any, intersects: bool) -> bool:
        if actual is MISSING:
            return False
        region = _geo_region(arg)
        try:
            geometry = parse_geometry(actual)
        except Exception:
            return False
        from repro.geo.geometry import LineString, Point

        if isinstance(geometry, Point):
            return region.contains(geometry)
        box = region if isinstance(region, BoundingBox) else region.bbox
        if isinstance(geometry, LineString):
            if intersects:
                # $geoIntersects: any crossing counts.  Exact for the
                # rectangular regions the workloads use.
                return geometry.intersects_box(box)
            # $geoWithin: every vertex (and hence, for rectangles,
            # every segment) must lie inside.
            return all(region.contains(p) for p in geometry.points)
        from repro.geo.geometry import Polygon as _Polygon

        if isinstance(geometry, _Polygon):
            if intersects:
                return geometry.intersects_box(box)
            return all(region.contains(p) for p in geometry.ring)
        return False


def _top_level_paths(query: Mapping[str, Any]):
    for key, value in query.items():
        if key == "$and":
            for clause in value:
                yield from _top_level_paths(clause)
        else:
            yield key


def _geo_region(arg: Any):
    """Parse the argument of $geoWithin into a testable region."""
    if isinstance(arg, Mapping):
        if "$geometry" in arg:
            geometry = parse_geometry(arg["$geometry"])
            if not isinstance(geometry, Polygon):
                raise QueryError("$geoWithin $geometry must be a Polygon")
            return geometry
        if "$box" in arg:
            (lo, hi) = arg["$box"]
            return BoundingBox(lo[0], lo[1], hi[0], hi[1])
    if isinstance(arg, (Polygon, BoundingBox)):
        return arg
    raise QueryError("unsupported $geoWithin argument %r" % (arg,))


def _values_equal_missing(arg: Any) -> bool:
    """Whether a missing field counts as equal to ``arg`` (null only)."""
    return arg is None


_TYPE_NAME_RANKS = {
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


def matches(query: Mapping[str, Any], document: Mapping[str, Any]) -> bool:
    """One-shot convenience wrapper around :class:`Matcher`."""
    return Matcher(query).matches(document)
