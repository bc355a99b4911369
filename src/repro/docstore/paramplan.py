"""Parameterized plans: structural shape keys + bind-time compilation.

A workload of millions of distinct boxes shares a handful of query
shapes, and anything keyed on the *exact* query document misses almost
every lookup and pays full analysis + predicate compilation per query.
This module splits that work along the MongoDB parameterized-plan
line:

* :func:`param_shape_key` computes a value-free *structural* key in one
  cheap walk (no :func:`~repro.docstore.planner.analyze_query`, no
  canonicalization): which paths are constrained, by which operator
  kinds, in which order.  Box corners, date bounds, ``$in`` members and
  Hilbert-range endpoints are erased — they are the plan's *bind
  slots*.
* :func:`bind_plan` takes a plan template (the key's slot list)
  and a concrete query and produces the analyzed
  :class:`~repro.docstore.planner.QueryShape` and a compiled
  :class:`~repro.docstore.matcher.Matcher` in a single fused walk —
  canonicalizing each argument once, parsing each geo region once, and
  folding a single-path ``$or`` once into both the planner's interval
  union and the matcher's bisectable interval set.

Parity contract: a successful bind produces byte-identical results and
``keysExamined``/``docsExamined`` counters to the unbound path, because
it emits exactly the predicate objects ``analyze_query`` +
``Matcher(query)`` would have built:

* the compiled conjunction reuses the compiler's own test builders and
  cost ordering, so the predicate list is the one
  :func:`~repro.docstore.compiler.compile_matcher` returns;
* the ``$or`` fold is restricted (at *key* time, so the restriction is
  structural) to the all-inclusive forms — ``$gte``+``$lte`` range
  clauses and ``$eq``/``$in`` point clauses — on which the planner's
  ``_fold_or`` and the matcher's ``_compile_or_intervals`` provably
  construct the same merged intervals;
* any value-dependent deviation the key cannot see (null ``$or``
  points, uncanonicalizable arguments, non-Polygon geo regions) makes
  :func:`bind_plan` return ``None`` and the caller falls back to the
  full analyze + compile path, which reproduces every lazy error the
  interpreter would raise.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.docstore import bson
from repro.docstore.compiler import (
    CompiledPredicateList,
    _compile_operator,
    _geo_test_from_region,
    _tag_interval_set,
    _tag_path_tests,
    _Tagged,
)
from repro.docstore.matcher import (
    Matcher,
    _geo_region,
    _IntervalSetPredicate,
    is_operator_expression,
)
from repro.docstore.planner import (
    Interval,
    PathPredicate,
    QueryShape,
    _absorb_operators,
)

__all__ = ["param_shape_key", "bind_plan"]

#: Operators a parameterizable path predicate may use.  Everything else
#: ($ne, $exists, $not, $mod, ...) sends the query down the legacy
#: path — still correct, just unparameterized.
_PARAM_OPS = frozenset(
    ("$eq", "$in", "$gt", "$gte", "$lt", "$lte", "$geoWithin", "$geoIntersects")
)
_GEO_OPS = frozenset(("$geoWithin", "$geoIntersects"))


def _is_plain_sequence(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _orset_component(clauses: Any) -> Optional[Tuple[str, str]]:
    """The ``("orset", path)`` key component for a ``$or``, or None.

    Accepts exactly the single-path union forms on which the planner
    fold and the matcher interval-set compilation agree construction
    for construction: every clause ``{path: ops}`` on one shared path,
    each clause either a closed ``$gte``+``$lte`` range (no points) or
    pure ``$eq``/``$in`` points, with at least one clause contributing
    an interval.  Clause *count* and bound values are erased — that is
    what lets every Hilbert rendering of every box share one plan.
    """
    if not _is_plain_sequence(clauses):
        return None
    path: Optional[str] = None
    contributes = False
    for clause in clauses:
        if not isinstance(clause, Mapping) or len(clause) != 1:
            return None
        ((cpath, value),) = clause.items()
        if not isinstance(cpath, str) or cpath.startswith("$"):
            return None
        if path is None:
            path = cpath
        elif path != cpath:
            return None
        if not is_operator_expression(value):
            return None
        has_gte = has_lte = has_points = False
        for op, arg in value.items():
            if op == "$gte":
                has_gte = True
            elif op == "$lte":
                has_lte = True
            elif op == "$eq":
                has_points = True
                contributes = True
            elif op == "$in":
                if not _is_plain_sequence(arg):
                    return None
                has_points = True
                if len(arg):
                    contributes = True
            else:
                return None
        if has_gte or has_lte:
            # Only fully closed ranges: half-open ranges and mixed
            # range+point clauses are folded by the planner but not
            # interval-set-compiled by the matcher, so binding them
            # would change the compiled predicate structure.
            if not (has_gte and has_lte) or has_points:
                return None
            contributes = True
    if path is None or not contributes:
        return None
    return ("orset", path)


def param_shape_key(
    collection: str, query: Mapping[str, Any]
) -> Optional[Tuple]:
    """A value-free structural key for a query, or None.

    The key is ``(collection, slots)`` where ``slots`` records, in
    query order, each constrained path with its operator-kind tuple.
    Two queries share a key exactly when :func:`bind_plan` would walk
    them identically, so the slot tuple is a valid bind template for
    every query that produces the key.  Returns None for any structure
    outside the parameterizable subset (logical operators other than
    the single-path ``$or``, unsupported operators, empty ``$in``
    lists whose emptiness would change index-bound usability).
    """
    slots: List[Tuple] = []
    for key, value in query.items():
        if not isinstance(key, str):
            return None
        if key == "$or":
            component = _orset_component(value)
            if component is None:
                return None
            slots.append(component)
        elif key.startswith("$"):
            return None
        elif is_operator_expression(value):
            ops: List[str] = []
            for op, arg in value.items():
                if op not in _PARAM_OPS:
                    return None
                if op == "$in" and (
                    not _is_plain_sequence(arg) or not len(arg)
                ):
                    # An empty $in yields no index bounds, flipping
                    # which plans are usable; keep it off the shared
                    # key and let the analyzed path handle it.
                    return None
                ops.append(op)
            slots.append(("ops", key, tuple(ops)))
        else:
            slots.append(("eq", key))
    return (collection, tuple(slots))


def _bind_ops_slot(
    path: str,
    value: Mapping[str, Any],
    predicate: PathPredicate,
) -> Optional[_Tagged]:
    """Bind one operator-document slot: tests + shape, fused."""
    tests: List[Any] = []
    absorbed = value
    for op, arg in value.items():
        if op in _GEO_OPS:
            try:
                region = _geo_region(arg)
            except Exception:
                return None  # non-Polygon $geometry etc.: interpreter
            test = _geo_test_from_region(
                region, intersects=op == "$geoIntersects"
            )
            # The planner shape takes the parsed region, not the raw
            # argument, so the GeoJSON is parsed once per query.
            absorbed = {**absorbed, op: region}
        else:  # $eq / $in / $gt / $gte / $lt / $lte, by key construction
            test = _compile_operator(op, arg)
            if test is None:
                return None
        tests.append(test)
    _absorb_operators(predicate, absorbed)
    return _tag_path_tests(path, value, tests)


def _bind_orset_slot(
    path: str, clauses: Sequence[Mapping[str, Any]]
) -> Optional[Tuple[_IntervalSetPredicate, List[Interval]]]:
    """Fold a single-path ``$or`` once for both planner and matcher.

    One pass canonicalizes each bound, one sort+merge builds the union;
    the all-inclusive restriction enforced at key time guarantees the
    result equals both the planner's ``_fold_or`` normalization and the
    matcher's ``_compile_or_intervals`` merge.
    """
    items: List[Tuple[Any, Any]] = []
    try:
        for clause in clauses:
            ((_cpath, value),) = clause.items()
            gt = lt = None
            points: List[Any] = []
            for op, arg in value.items():
                if op == "$gte":
                    gt = arg
                elif op == "$lte":
                    lt = arg
                elif op == "$eq":
                    points.append(arg)
                else:  # $in, by key construction
                    points.extend(arg)
            if gt is not None:
                items.append((bson.sort_key(gt), bson.sort_key(lt)))
            else:
                for point in points:
                    if point is None:
                        # Null points need MISSING-field semantics the
                        # interval set cannot express.
                        return None
                    canon = bson.sort_key(point)
                    items.append((canon, canon))
    except TypeError:
        return None  # uncanonicalizable bound: the full path raises
    items.sort()
    merged: List[Tuple[Any, Any]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    interval_set = _IntervalSetPredicate(
        path, [(lo, hi, True, True) for lo, hi in merged]
    )
    intervals = [Interval(lo, hi, True, True) for lo, hi in merged]
    return interval_set, intervals


def bind_plan(
    query: Mapping[str, Any], template: Tuple[Tuple, ...]
) -> Optional[Tuple[QueryShape, Matcher]]:
    """Bind a query's values into its plan template.

    ``template`` is the slot tuple of the query's own
    :func:`param_shape_key`, so the walk below cannot encounter a
    structure the slots do not describe.  Returns ``(shape, matcher)``
    on success or None when a value-level condition requires the full
    analyze + compile path for exact parity.
    """
    predicates: Dict[str, PathPredicate] = {}
    tagged: List[_Tagged] = []
    compiled_ors: dict = {}

    def pred(path: str) -> PathPredicate:
        if path not in predicates:
            predicates[path] = PathPredicate(path)
        return predicates[path]

    for slot in template:
        kind, path = slot[0], slot[1]
        if kind == "orset":
            clauses = query["$or"]
            folded = _bind_orset_slot(path, clauses)
            if folded is None:
                return None
            interval_set, intervals = folded
            compiled_ors[id(clauses)] = interval_set
            tagged.append(_tag_interval_set(interval_set))
            pred(path).absorb_or(intervals)
            continue
        value = query[path]
        bound = _bind_ops_slot(
            path, value if kind == "ops" else {"$eq": value}, pred(path)
        )
        if bound is None:
            return None
        tagged.append(bound)

    compiled = CompiledPredicateList(tagged)
    shape = QueryShape(
        predicates=predicates, residual_query=query, opaque_or=False
    )
    matcher = Matcher.from_compiled(query, compiled_ors, compiled)
    return shape, matcher
