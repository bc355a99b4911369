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
  folding a single-path ``$or`` once
  (:func:`~repro.docstore.planner.fold_or`) for both the planner's
  bounds and the matcher's predicate.
* :func:`plan_read` is the one way a read is planned: bind unless
  hinted, else compile and analyze.

A successful bind produces byte-identical results and
``keysExamined``/``docsExamined`` counters to the unbound path, because
it builds its predicates at the compiler's own construction sites
(operator tests, ``tag_or``, the cost ordering) from the same fold and
the same parsed regions ``analyze_query`` + ``Matcher(query)`` use.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

from repro.docstore.compiler import (
    _compile_operator,
    _tag_path_tests,
    _Tagged,
    geo_test,
    tag_or,
)
from repro.docstore.matcher import Matcher
from repro.docstore.planner import (
    BOUND_OPS,
    PathPredicate,
    QueryShape,
    _absorb_operators,
    analyze_query,
    fold_or,
    geo_region,
    is_operator_expression,
    is_plain_sequence,
)

__all__ = ["param_shape_key", "bind_plan", "plan_read"]

#: Operators a parameterizable path predicate may use.  Everything else
#: ($ne, $exists, $not, $mod, ...) sends the query down the compile +
#: analyze path — still correct, just unparameterized.
_PARAM_OPS = frozenset(
    ("$eq", "$in", "$gt", "$gte", "$lt", "$lte", "$geoWithin", "$geoIntersects")
)
_GEO_OPS = frozenset(("$geoWithin", "$geoIntersects"))


def _orset_component(clauses: Any) -> Optional[Tuple[str, str]]:
    """The ``("orset", path)`` key component for a ``$or``, or None.

    Accepts the single-path unions :func:`fold_or` folds: every clause
    ``{path: ops}`` on one shared path, with bound operators only.
    Clause *count* and bound values are erased — that is what lets
    every Hilbert rendering of every box share one plan.
    """
    if not is_plain_sequence(clauses):
        return None
    paths = set()
    for clause in clauses:
        if not isinstance(clause, Mapping) or len(clause) != 1:
            return None
        ((path, value),) = clause.items()
        if not is_operator_expression(value) or not BOUND_OPS.issuperset(value):
            return None
        paths.add(path)
    if len(paths) != 1:
        return None
    (path,) = paths
    if not isinstance(path, str) or path.startswith("$"):
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
                    not is_plain_sequence(arg) or not len(arg)
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
) -> _Tagged:
    """Bind one operator-document slot: tests + shape, fused."""
    tests: List[Any] = []
    absorbed = value
    for op, arg in value.items():
        if op in _GEO_OPS:
            region = geo_region(arg)
            test = geo_test(region, intersects=op == "$geoIntersects")
            # The planner shape takes the parsed region, not the raw
            # argument, so the GeoJSON is parsed once per query.
            absorbed = {**absorbed, op: region}
        else:  # $eq / $in / $gt / $gte / $lt / $lte, by key construction
            test = _compile_operator(op, arg)
        tests.append(test)
    _absorb_operators(predicate, absorbed)
    return _tag_path_tests(path, value, tests)


def bind_plan(
    query: Mapping[str, Any], template: Tuple[Tuple, ...]
) -> Optional[Tuple[QueryShape, Matcher]]:
    """Bind a query's values into its plan template.

    ``template`` is the slot tuple of the query's own
    :func:`param_shape_key`, so the walk below cannot encounter a
    structure the slots do not describe.  Returns ``(shape, matcher)``,
    or None when the ``$or`` does not fold (an argument with no place
    in the BSON order, or no clause contributes an interval): the full
    compile + analyze path then handles it.  A malformed value raises
    :class:`~repro.errors.QueryError`.
    """
    predicates: Dict[str, PathPredicate] = {}
    tagged: List[_Tagged] = []

    def pred(path: str) -> PathPredicate:
        if path not in predicates:
            predicates[path] = PathPredicate(path)
        return predicates[path]

    for slot in template:
        kind, path = slot[0], slot[1]
        if kind == "orset":
            clauses = query["$or"]
            folded = fold_or(clauses)
            if folded is None:
                return None
            tagged.append(tag_or(clauses, folded))
            pred(path).absorb_or(folded.intervals)
            continue
        value = query[path]
        tagged.append(
            _bind_ops_slot(
                path, value if kind == "ops" else {"$eq": value}, pred(path)
            )
        )

    shape = QueryShape(
        predicates=predicates, residual_query=query, opaque_or=False
    )
    return shape, Matcher.from_tagged(tagged)


def plan_read(
    collection: str, query: Mapping[str, Any], hint: Optional[str]
) -> Tuple[QueryShape, Matcher, Optional[str]]:
    """``(shape, matcher, outcome)`` for one read.

    An unhinted query binds its values into its parameterized shape
    (outcome ``"shape"``); a hinted one (outcome None) or one the bind
    refuses (``"miss"``) is compiled, then analyzed — compiled first,
    so a malformed query raises :class:`~repro.errors.QueryError`
    before the planner reads it.  No index choice is carried from one
    query to the next: per-shard plan ranking depends on per-shard
    field statistics and on the bound values.
    """
    if hint is None:
        key = param_shape_key(collection, query)
        bound = bind_plan(query, key[1]) if key is not None else None
        if bound is not None:
            return bound[0], bound[1], "shape"
    matcher = Matcher(query)
    return analyze_query(query), matcher, None if hint is not None else "miss"
