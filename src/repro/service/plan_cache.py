"""Hashable keys for queries: by value-free shape, and by exact document.

Nothing here stores a plan.  :class:`~repro.service.service.QueryService`
plans every read from the query itself, in one walk
(:func:`~repro.docstore.matcher.parse_query`), so there is no plan cache to fill, evict or invalidate
— DESIGN.md §8 records the measurements and the counter-parity bug
that retired the three stores this module used to hold.  What is left
are two key functions no read path calls any more — the worker result
cache :func:`exact_query_key` addressed is gone too.  The benchmark
harness still times both, so they go with ROADMAP item 1(d).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Mapping, Optional, Tuple

from repro.docstore.planner import QueryShape, analyze_query

__all__ = ["query_shape_key", "exact_query_key"]


def _predicate_signature(path: str, predicate) -> Tuple:
    """Structural signature of one path's predicate (values erased)."""
    return (
        path,
        bool(predicate.eq_values),
        bool(predicate.in_values),
        predicate.gt is not None,
        predicate.lt is not None,
        predicate.geo_region is not None,
        bool(predicate.or_intervals),
    )


def query_shape_key(
    collection: str, query_or_shape: Mapping[str, Any] | QueryShape
) -> Tuple:
    """A hashable, value-free key identifying a query's shape.

    Two queries share a key when they constrain the same paths with
    the same operator kinds — MongoDB's query-shape normalization.
    """
    if isinstance(query_or_shape, QueryShape):
        shape = query_or_shape
    else:
        shape = analyze_query(query_or_shape)
    signature = tuple(
        sorted(
            _predicate_signature(path, predicate)
            for path, predicate in shape.predicates.items()
        )
    )
    return (collection, shape.opaque_or, signature)


#: Exact scalar types → the tag :func:`_freeze` gives them (the tag is
#: the type name, precomputed to skip per-leaf ``__name__`` lookups).
_SCALAR_NAMES = {
    t: t.__name__
    for t in (
        str,
        int,
        float,
        bool,
        bytes,
        type(None),
        _dt.datetime,
        _dt.date,
    )
}


def _freeze(value: Any) -> Tuple:
    """Hashable, type-discriminated form of a query-document value.

    Tags every leaf with its type name so ``1``, ``1.0``, and ``True``
    (equal and hash-equal in Python, but matched differently by the
    type-bracketed BSON comparison) can never share a key.
    Raises TypeError for unhashable leaves.
    """
    kind = type(value)
    # Exact-type fast lane first: rendered queries are built from
    # plain dicts/lists and stdlib scalars, so the ABC isinstance
    # checks below almost never need to run on the hot path.
    if kind is dict:
        return (
            "m",
            tuple(sorted((k, _freeze(v)) for k, v in value.items())),
        )
    if kind is list or kind is tuple:
        return ("l", tuple(_freeze(v) for v in value))
    if kind in _SCALAR_NAMES:
        return (_SCALAR_NAMES[kind], value)
    if isinstance(value, Mapping):
        return (
            "m",
            tuple(sorted((k, _freeze(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return ("l", tuple(_freeze(v) for v in value))
    hash(value)
    return (kind.__name__, value)


def exact_query_key(
    collection: str, query: Mapping[str, Any]
) -> Optional[Tuple]:
    """A hashable key identifying a full query *document*, or None.

    Unlike :func:`query_shape_key` this keeps the constants: two
    queries share a key only when byte-for-byte equivalent, which is
    what lets a shard worker resend a result it already computed at
    the same storage epoch.  Queries holding unhashable custom values
    have no key (returns None).
    """
    try:
        return (collection, _freeze(query))
    except TypeError:
        return None
