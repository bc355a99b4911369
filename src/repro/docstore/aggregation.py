"""Aggregation pipeline: the two stages the reproduction uses.

The paper uses one aggregation stage in anger — ``$bucketAuto``, which
computes the even-count shard-key ranges that become zones
(Section 4.2.4).  The pipeline implements that stage faithfully
(boundary semantics included) plus ``$project``, which backs
``Collection.find(projection=...)``.

Stages read their input in place and copy every value they place in
their output, so a caller owns what the pipeline returns and the
pipeline pays no per-document copy of its input.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.docstore import bson
from repro.docstore.document import (
    MISSING,
    deep_copy_document,
    get_path,
    set_path,
)
from repro.errors import AggregationError

__all__ = ["run_pipeline", "evaluate_expression"]


def evaluate_expression(expr: Any, document: Mapping[str, Any]) -> Any:
    """Evaluate an aggregation expression against a document.

    Supports field paths (``"$location.lat"``), ``$literal`` and plain
    literals, nested in documents and arrays.
    """
    if isinstance(expr, str) and expr.startswith("$"):
        value = get_path(document, expr[1:])
        return None if value is MISSING else value
    if isinstance(expr, Mapping):
        if len(expr) == 1:
            ((op, args),) = expr.items()
            if op == "$literal":
                return args
            if op.startswith("$"):
                raise AggregationError(
                    "unsupported expression operator %r" % op
                )
        return {
            k: evaluate_expression(v, document) for k, v in expr.items()
        }
    if isinstance(expr, (list, tuple)):
        return [evaluate_expression(e, document) for e in expr]
    return expr


# -- stages -----------------------------------------------------------------

_Docs = Sequence[Mapping[str, Any]]


def _stage_project(docs: _Docs, arg: Mapping[str, Any]) -> List[dict]:
    include = {k: v for k, v in arg.items() if k != "_id"}
    modes = {bool(v) for v in include.values() if v in (0, 1, True, False)}
    inclusion = True
    if modes == {False}:
        inclusion = False
    keep_id = bool(arg.get("_id", 1))
    out: List[dict] = []
    for doc in docs:
        if inclusion:
            projected: dict = {}
            if keep_id and "_id" in doc:
                projected["_id"] = copy.deepcopy(doc["_id"])
            for path, spec in include.items():
                if spec in (1, True):
                    value = get_path(doc, path)
                    if value is MISSING:
                        continue
                else:  # computed field
                    value = evaluate_expression(spec, doc)
                set_path(projected, path, copy.deepcopy(value))
        else:
            projected = {
                k: copy.deepcopy(v)
                for k, v in doc.items()
                if k not in include
            }
            if not keep_id:
                projected.pop("_id", None)
        out.append(projected)
    return out


def _stage_bucket_auto(docs: _Docs, arg: Mapping[str, Any]) -> List[dict]:
    """Even-count bucketing, MongoDB ``$bucketAuto`` semantics.

    Documents are ordered by the groupBy value; bucket boundaries are
    inclusive of the min and exclusive of the max, except the last
    bucket which includes its max.  Buckets never split equal groupBy
    values, so skewed data can yield fewer buckets than requested —
    exactly the behaviour the paper leans on when zoning skewed Hilbert
    values.  Each bucket carries its document ``count``.
    """
    group_by = arg.get("groupBy")
    n_buckets = arg.get("buckets")
    if group_by is None or not isinstance(n_buckets, int) or n_buckets <= 0:
        raise AggregationError(
            "$bucketAuto requires groupBy and a positive bucket count"
        )
    unknown = sorted(set(arg) - {"groupBy", "buckets"})
    if unknown:
        raise AggregationError("unsupported $bucketAuto options %r" % unknown)

    keyed = []
    for doc in docs:
        value = evaluate_expression(group_by, doc)
        if value is None:
            raise AggregationError(
                "$bucketAuto groupBy produced null for %r" % (doc,)
            )
        keyed.append(value)
    keyed.sort(key=bson.sort_key)
    if not keyed:
        return []

    total = len(keyed)
    approx = max(1, -(-total // n_buckets))  # ceil division
    buckets: List[dict] = []
    start = 0
    while start < total:
        end = min(start + approx, total)
        # Never split a run of equal groupBy values across buckets.
        while end < total and bson.compare(keyed[end], keyed[end - 1]) == 0:
            end += 1
        upper = keyed[end] if end < total else keyed[end - 1]
        buckets.append(
            {
                "_id": {
                    "min": copy.deepcopy(keyed[start]),
                    "max": copy.deepcopy(upper),
                },
                "count": end - start,
            }
        )
        start = end
    return buckets


_STAGES: Dict[str, Callable[[_Docs, Any], List[dict]]] = {
    "$project": _stage_project,
    "$bucketAuto": _stage_bucket_auto,
}


def run_pipeline(
    documents: _Docs,
    pipeline: Sequence[Mapping[str, Any]],
) -> List[dict]:
    """Run an aggregation pipeline over in-memory documents.

    ``documents`` are read, never modified or returned: an empty
    pipeline returns copies.
    """
    if not pipeline:
        return [deep_copy_document(d) for d in documents]
    docs = documents
    for stage in pipeline:
        if not isinstance(stage, Mapping) or len(stage) != 1:
            raise AggregationError(
                "each pipeline stage must be a single-key document"
            )
        ((name, arg),) = stage.items()
        handler = _STAGES.get(name)
        if handler is None:
            raise AggregationError("unsupported pipeline stage %r" % name)
        docs = handler(docs, arg)
    return docs
