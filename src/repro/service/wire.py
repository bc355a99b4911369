"""Picklable wire frames for the process-parallel executor.

The :class:`~repro.service.executors.ShardWorkerPool` ships whole reads
to worker processes over pipes.  Everything that crosses the process
boundary is defined here, in one place, so the round-trip property —
decode(encode(x)) reproduces x exactly — can be tested against the
differential query corpus:

* :class:`PlanMessage` — one read: the raw query document and the read
  epoch (:meth:`~repro.cluster.cluster.ShardedCluster.read_epoch`) it
  must execute at;
* :class:`ReadRequest` — what one pipe write carries: a plan message
  and the request id its reply answers;
* :class:`ResultFrame` — the worker's one answer to a read: the shards
  it targeted, the broadcast flag, one :func:`encode_result` payload
  per targeted shard and the plan time.  A payload carries record ids,
  not documents: the parent holds the same documents at the same
  epoch and copies them from its own store;
* ``encode_stats``/``decode_stats`` — the counter frame: a
  :class:`~repro.docstore.executor.ExecutionStats` flattened to a
  plain tuple and rebuilt field-for-field, so the service's merged
  statistics are identical to the threaded path's.

No document crosses the wire: a worker is a fork of the whole cluster
(:mod:`repro.service.executors`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from repro.docstore.executor import ExecutionStats

__all__ = [
    "PlanMessage",
    "ReadRequest",
    "ShutdownFrame",
    "ResultFrame",
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
    """One read, compact enough to pickle per request.

    ``epoch`` is the collection's read epoch at send time, read under
    the service lock — the worker refuses to serve a read whose epoch
    is not its own.
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
    epoch: Any
    #: Test hook, per shard id: the worker sleeps this long for each
    #: targeted shard before it replies, to reconstruct the
    #: stalled-worker / deadline-expiry leak class.
    stall_ms: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ReadRequest:
    """A :class:`PlanMessage` with the id its reply answers."""

    request_id: int
    plan: PlanMessage


@dataclass(frozen=True)
class ShutdownFrame:
    """Ask the worker to exit once it has answered what it was sent."""


@dataclass(frozen=True)
class ResultFrame:
    """One read's reply.

    Either ``error`` (a pickled exception, see :func:`encode_error`) is
    set, or the read's routing — ``shard_ids`` and ``broadcast`` — and
    one ``payloads`` entry (see :func:`encode_result`) per targeted
    shard, in targeting order, with the worker's ``plan_ms``.
    ``epoch`` is the read epoch the read ran at; the parent refuses a
    reply whose epoch is not the one it sent.  ``violations`` carries
    worker-side lock-order sanitizer findings when
    ``REPRO_WORKER_SANITIZE`` instrumentation is on (empty means
    clean, the parent raises on anything else).
    """

    request_id: int
    shard_ids: Tuple[str, ...] = ()
    broadcast: bool = False
    payloads: Tuple[bytes, ...] = ()
    plan_ms: float = 0.0
    error: Optional[bytes] = None
    epoch: Any = None
    violations: Tuple[str, ...] = ()


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
    """Pickle one shard's record ids and counters into one payload."""
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
