"""Picklable wire frames for the process-parallel shard executors.

The :class:`~repro.service.executors.ShardWorkerPool` ships per-shard
subqueries to worker processes over pipes.  Everything that crosses
the process boundary is defined here, in one place, so the round-trip
property — decode(encode(x)) reproduces x byte-for-byte — can be
tested exhaustively against the differential query corpus:

* :class:`PlanMessage` — one compiled subquery: the raw query document
  plus its two query keys (the exact key addresses the worker-side
  result cache) and the replica epoch it must execute against;
* :class:`BatchFrame` — what one pipe write carries: any replica
  snapshots the worker is missing (:class:`SyncFrame`), then the
  queued subqueries in arrival order, so one round-trip carries every
  coalesced query;
* :class:`ResultFrame` — one subquery's reply: an encoded
  (documents, counters) payload on success, a pickled exception on
  failure;
* ``encode_stats``/``decode_stats`` — the counter frame: a
  :class:`~repro.docstore.executor.ExecutionStats` flattened to a
  plain tuple and rebuilt field-for-field, so the service's merged
  statistics are identical to the threaded path's.

Snapshot payloads (``SyncFrame.payload``) and result payloads are
pre-pickled ``bytes``, not live objects: a snapshot must be captured
*while the parent holds the shard read lock* (a writer may mutate the
documents in place the moment the lock drops), and a reply payload
kept as bytes lets the worker's epoch-validated result cache resend
the identical encoding without re-pickling.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.docstore.executor import ExecutionStats

__all__ = [
    "PlanMessage",
    "SubqueryRequest",
    "SyncFrame",
    "BatchFrame",
    "ShutdownFrame",
    "ResultFrame",
    "SubqueryResult",
    "encode_stats",
    "decode_stats",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
    "make_sync_payload",
    "load_sync_payload",
]

#: One protocol for every frame; bumping pickle's default must not
#: silently change what the parity gates compare.
WIRE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclass(frozen=True)
class PlanMessage:
    """One shard subquery, compact enough to pickle per request.

    ``shape_key``/``exact_key`` come from the query key functions
    (:func:`repro.service.plan_cache.query_shape_key` /
    :func:`~repro.service.plan_cache.exact_query_key`): the exact key
    addresses the worker's epoch-validated result cache; the worker
    does not read the shape key.  ``epoch`` is the source collection's
    ``mutation_count`` at send time, read under the shard read lock —
    the worker refuses to serve a cached result (or a stale replica)
    whose epoch does not match.
    """

    collection: str
    query: Mapping[str, Any]
    hint: Optional[str]
    max_geo_ranges: Optional[int]
    #: Always True and read by no worker: there is one execution path.
    #: The benchmark harness builds this message by keyword, so the
    #: field goes with ROADMAP item 1(d), not before.
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
class SyncFrame:
    """A full replica snapshot for one ``(shard, collection)``.

    ``payload`` is produced by :func:`make_sync_payload` under the
    shard read lock: index definitions plus every document in rid
    order.  Rebuilding the replica in that order remaps rids
    monotonically, which preserves index scan order, collection scan
    order, and therefore every result list and counter byte-for-byte.
    """

    shard_id: str
    collection: str
    epoch: int
    payload: bytes


@dataclass(frozen=True)
class BatchFrame:
    """One pipe write: missing snapshots first, then the requests."""

    syncs: Tuple[SyncFrame, ...]
    requests: Tuple[SubqueryRequest, ...]


@dataclass(frozen=True)
class ShutdownFrame:
    """Ask the worker to acknowledge (with its sanitizer state) and exit."""


@dataclass(frozen=True)
class ResultFrame:
    """One subquery reply.

    Exactly one of ``payload`` (success, see :func:`encode_result`)
    and ``error`` (a pickled exception, see :func:`encode_error`) is
    set.  ``cached``/``synced`` feed the parent's executor metrics;
    ``violations`` carries worker-side lock-order sanitizer findings
    when ``REPRO_WORKER_SANITIZE`` instrumentation is on (empty means
    clean, the parent raises on anything else).
    """

    request_id: int
    payload: Optional[bytes] = None
    error: Optional[bytes] = None
    cached: bool = False
    synced: bool = False
    violations: Tuple[str, ...] = ()


@dataclass
class SubqueryResult:
    """The decoded reply: what ``run_shard`` returns on the threaded path."""

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


def encode_result(documents: List[dict], stats: ExecutionStats) -> bytes:
    """Pickle a subquery result into one reply payload."""
    return pickle.dumps(
        (documents, encode_stats(stats)), protocol=WIRE_PROTOCOL
    )


def decode_result(payload: bytes) -> SubqueryResult:
    """The inverse of :func:`encode_result`."""
    documents, stats_frame = pickle.loads(payload)
    return SubqueryResult(documents=documents, stats=decode_stats(stats_frame))


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


# -- replica snapshots ---------------------------------------------------------


def make_sync_payload(collection) -> bytes:
    """Snapshot a live :class:`~repro.docstore.collection.Collection`.

    Must be called while the caller holds the shard's read lock: the
    documents are pickled *now*, so an in-place update racing after
    lock release cannot leak into the frame.  Documents are captured
    in ``all_documents()`` (rid) order — the rebuild contract
    :class:`SyncFrame` documents.
    """
    return pickle.dumps(
        (
            collection.index_definitions(),
            list(collection.all_documents()),
        ),
        protocol=WIRE_PROTOCOL,
    )


def load_sync_payload(payload: bytes) -> Tuple[List[Any], List[dict]]:
    """``(index_definitions, documents)`` from a snapshot payload."""
    definitions, documents = pickle.loads(payload)
    return definitions, documents
