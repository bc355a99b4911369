"""Picklable wire frames for the process-parallel shard executors.

The :class:`~repro.service.executors.ShardWorkerPool` ships per-shard
subqueries to worker processes over pipes.  Everything that crosses
the process boundary is defined here, in one place, so the round-trip
property — decode(encode(x)) reproduces x exactly — can be tested
against the differential query corpus:

* :class:`PlanMessage` — one subquery: the raw query document and the
  collection epoch it must execute against;
* :class:`BatchFrame` — what one pipe write carries: the queued
  subqueries in arrival order, so one round-trip carries every
  coalesced query;
* :class:`ReplyFrame` — the worker's one answer to a batch: a
  :class:`ResultFrame` per request, in order.  A result carries record
  ids, not documents: the parent holds the same documents at the same
  epoch and copies them from its own store;
* ``encode_stats``/``decode_stats`` — the counter frame: a
  :class:`~repro.docstore.executor.ExecutionStats` flattened to a
  plain tuple and rebuilt field-for-field, so the service's merged
  statistics are identical to the threaded path's.

No document crosses the wire: a worker is forked with the collections
it serves (:mod:`repro.service.executors`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.docstore.executor import ExecutionStats

__all__ = [
    "PlanMessage",
    "SubqueryRequest",
    "BatchFrame",
    "ShutdownFrame",
    "ResultFrame",
    "ReplyFrame",
    "SubqueryResult",
    "encode_stats",
    "decode_stats",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
]

#: One protocol for every frame; bumping pickle's default must not
#: silently change what the parity gates compare.
WIRE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclass(frozen=True)
class PlanMessage:
    """One shard subquery, compact enough to pickle per request.

    ``epoch`` is the source collection's ``mutation_count`` at send
    time, read under the service lock — the worker refuses to serve
    a collection whose epoch does not match.
    """

    collection: str
    query: Mapping[str, Any]
    hint: Optional[str]
    max_geo_ranges: Optional[int]
    #: ``fast_path`` is always True and the two keys always None; no
    #: worker reads them.  The benchmark harness builds this message by
    #: keyword, so the fields go with ROADMAP item 1(d), not before.
    fast_path: bool
    shape_key: Optional[Tuple[Any, ...]]
    exact_key: Optional[Tuple[Any, ...]]
    epoch: int
    #: Test hook: the worker sleeps this long *before* executing, to
    #: reconstruct the stalled-worker/deadline-expiry leak class.
    stall_ms: float = 0.0


@dataclass(frozen=True)
class SubqueryRequest:
    """A :class:`PlanMessage` addressed to one shard, with a reply id."""

    request_id: int
    shard_id: str
    plan: PlanMessage


@dataclass(frozen=True)
class BatchFrame:
    """One pipe write: the queued requests, in arrival order."""

    requests: Tuple[SubqueryRequest, ...]


@dataclass(frozen=True)
class ShutdownFrame:
    """Ask the worker to acknowledge (with its sanitizer state) and exit."""


@dataclass(frozen=True)
class ResultFrame:
    """One subquery's reply.

    Exactly one of ``payload`` (success, see :func:`encode_result`)
    and ``error`` (a pickled exception, see :func:`encode_error`) is
    set.  ``epoch`` is the collection epoch the subquery ran at; the
    parent refuses a reply whose epoch is not the one it sent.
    """

    request_id: int
    payload: Optional[bytes] = None
    error: Optional[bytes] = None
    epoch: Optional[int] = None


@dataclass(frozen=True)
class ReplyFrame:
    """One pipe write back: a result per request of one batch, in order.

    ``violations`` carries worker-side lock-order sanitizer findings
    when ``REPRO_WORKER_SANITIZE`` instrumentation is on (empty means
    clean, the parent raises on anything else).
    """

    results: Tuple[ResultFrame, ...]
    violations: Tuple[str, ...] = ()


@dataclass
class SubqueryResult:
    """A remote subquery's documents, copied by the parent, and counters.

    What ``run_shard`` returns on the threaded path, as far as the
    cluster's merge reads it.
    """

    documents: List[dict]
    stats: ExecutionStats


# -- counter frames ------------------------------------------------------------

#: ExecutionStats flattened in declaration order; a tuple (not a dict)
#: so a field added to ExecutionStats breaks the round-trip tests
#: instead of silently dropping a counter.
_STATS_FIELDS = (
    "keys_examined",
    "docs_examined",
    "n_returned",
    "seeks",
    "stage",
    "index_name",
    "stage_times_ms",
)


def encode_stats(stats: ExecutionStats) -> Tuple[Any, ...]:
    """Flatten the counters to a plain, order-stable tuple."""
    return tuple(getattr(stats, name) for name in _STATS_FIELDS)


def decode_stats(frame: Tuple[Any, ...]) -> ExecutionStats:
    """Rebuild an :class:`ExecutionStats` from its counter frame."""
    if len(frame) != len(_STATS_FIELDS):
        raise ValueError(
            "counter frame has %d fields, expected %d"
            % (len(frame), len(_STATS_FIELDS))
        )
    return ExecutionStats(**dict(zip(_STATS_FIELDS, frame)))


# -- result frames -------------------------------------------------------------


def encode_result(rids: List[Any], stats: ExecutionStats) -> bytes:
    """Pickle a subquery's record ids and counters into one payload."""
    return pickle.dumps((rids, encode_stats(stats)), protocol=WIRE_PROTOCOL)


def decode_result(payload: bytes) -> Tuple[List[Any], ExecutionStats]:
    """The inverse of :func:`encode_result`: ``(rids, stats)``."""
    rids, stats_frame = pickle.loads(payload)
    return rids, decode_stats(stats_frame)


def encode_error(exc: BaseException) -> bytes:
    """Pickle an exception for the reply path, with a safe fallback.

    Exceptions whose constructor signature defeats pickling (pickle
    round-trips them by re-calling ``type(exc)(*args)``) degrade to a
    ``RuntimeError`` carrying the original repr — the parent still
    fails the query loudly instead of hanging on a reply that could
    not be sent.
    """
    try:
        blob = pickle.dumps(exc, protocol=WIRE_PROTOCOL)
        pickle.loads(blob)  # round-trip check, see docstring
        return blob
    except Exception:
        return pickle.dumps(
            RuntimeError("shard worker error: %r" % (exc,)),
            protocol=WIRE_PROTOCOL,
        )


def decode_error(blob: bytes) -> BaseException:
    """The inverse of :func:`encode_error`."""
    return pickle.loads(blob)
