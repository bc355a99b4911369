"""Execution backends for the query service's shard fan-out.

:class:`~repro.service.service.QueryService` delegates per-shard
subquery execution to an *executor*:

* :class:`ThreadedExecutor` — subqueries run in the calling thread,
  one after another, directly against the cluster's collections; the
  service hands reads their turns in arrival order.
* :class:`ShardWorkerPool` — process-parallel serving: each shard (or
  shard group) is assigned to a worker *process* hosting read replicas
  of its collections.  Subqueries travel as compact picklable plan
  messages (:mod:`repro.service.wire`), queued subqueries are
  coalesced into one batch frame per worker round-trip, and each
  worker keeps an epoch-validated result cache so repeated subqueries
  skip analysis, B-tree descent, and re-pickling entirely.

Replication contract (what makes results byte-identical):

* The parent is authoritative.  Writes and DDL run parent-side under
  the service's exclusive shard locks and bump the collection's
  ``mutation_count`` epoch.
* A worker replica is (re)built from a :class:`~repro.service.wire.
  SyncFrame` snapshot captured under the shard *read* lock, documents
  in rid order.  Rebuilding in that order remaps rids monotonically,
  so index scan order, collection scan order, returned documents, and
  every executionStats counter match the parent's collection exactly.
* Every plan message carries the epoch it was targeted at; a worker
  refuses to serve a replica (or cached result) whose epoch differs.
  Because readers hold the shard read lock from epoch capture through
  reply, and writers exclude readers, a shipped epoch can never be
  stale by the time the worker executes it — the refusal is a
  tripwire, not a retry protocol.

Deadline semantics: an expired deadline abandons the in-flight
subqueries (their replies are dropped by request id) and the service
releases its read locks immediately.  That is safe because a remote
subquery only touches the worker's own replica — it cannot race a
parent-side writer that acquires the freed locks.  The threaded path
has nothing in flight to abandon: its deadline is checked between
shards in the caller's own thread.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.docstore.collection import Collection
from repro.docstore.paramplan import plan_read
from repro.errors import QueryTimeoutError, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.plan_cache import exact_query_key, query_shape_key
from repro.service.wire import (
    BatchFrame,
    PlanMessage,
    ResultFrame,
    ShutdownFrame,
    SubqueryRequest,
    SubqueryResult,
    SyncFrame,
    decode_error,
    decode_result,
    encode_error,
    encode_result,
    load_sync_payload,
    make_sync_payload,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ShardedCluster
    from repro.service.service import ServiceConfig

__all__ = [
    "ENV_BACKEND",
    "ENV_WORKER_SANITIZE",
    "Deadline",
    "SubquerySpec",
    "ThreadedExecutor",
    "ShardWorkerPool",
    "resolve_backend",
]

#: Environment switch consulted when ``ServiceConfig.executor="auto"``:
#: ``thread`` (default) or ``process``.
ENV_BACKEND = "REPRO_EXECUTOR_BACKEND"
#: When set (and not "0"), worker processes run their host lock under
#: a worker-local lock-order sanitizer and report violations with
#: every reply.
ENV_WORKER_SANITIZE = "REPRO_WORKER_SANITIZE"

#: Entries in each worker process's epoch-validated result cache.
WORKER_CACHE_SIZE = 512

#: Worker-side instrumentation hook, filled in by
#: ``repro.sanitizer.instrument`` when that package is imported.  The
#: layering test (tests/test_public_api.py) forbids importing the
#: sanitizer here, so the upper layer registers the callable instead;
#: fork-started workers inherit the registration.  When
#: ``REPRO_WORKER_SANITIZE`` is set but nothing registered, the pool
#: refuses to spawn rather than silently serving uninstrumented.
worker_instrumenter: Optional[Any] = None


def resolve_backend(configured: str) -> str:
    """The effective backend name for a configured ``executor`` value."""
    if configured != "auto":
        return configured
    value = os.environ.get(ENV_BACKEND, "").strip().lower()
    if value in ("thread", "process"):
        return value
    if value:
        raise ServiceError(
            "%s must be 'thread' or 'process', got %r" % (ENV_BACKEND, value)
        )
    return "thread"


class Deadline:
    """Absolute per-request deadline with remaining-time arithmetic."""

    def __init__(self, timeout_ms: Optional[float]) -> None:
        self._expires = (
            None
            if timeout_ms is None
            else time.perf_counter() + timeout_ms / 1000.0
        )

    def remaining(self) -> Optional[float]:
        """Seconds left, or None when unbounded; raises when expired."""
        if self._expires is None:
            return None
        left = self._expires - time.perf_counter()
        if left <= 0:
            raise QueryTimeoutError("query exceeded its deadline")
        return left


@dataclass(frozen=True)
class SubquerySpec:
    """Everything an executor needs to run one query's shard fan-out.

    ``hint`` is the caller's explicit hint (or None) and ``shape``
    the already-analyzed query shape — the same objects
    the service hands to :meth:`ShardedCluster.find`, so both backends
    execute the identical plan.
    """

    collection: str
    query: Mapping[str, Any]
    hint: Optional[str]
    max_geo_ranges: Optional[int]
    shape: Any = None


class ThreadedExecutor:
    """The in-process backend: shard subqueries in the caller's thread.

    Under the GIL a pool of threads buys no parallelism, only hand-offs.
    A read's subqueries run one after another, in targeting order, in
    the thread that called :meth:`QueryService.find` — which holds the
    service's FIFO turn, so concurrent reads take turns in arrival
    order.  An expired deadline stops the fan-out between two shards;
    nothing else is running on the read's behalf, so the caller can
    release its read locks at once.
    """

    name = "thread"

    def shard_mapper(self, spec: SubquerySpec, deadline: Deadline):
        """The fan-out hook passed to :meth:`ShardedCluster.find`."""
        del spec  # threaded subqueries close over the live collections

        def mapper(fn, shard_ids):
            out = []
            for shard_id in shard_ids:
                deadline.remaining()  # raises when expired
                out.append(fn(shard_id))
            return out

        return mapper


class _PendingReply:
    """Parent-side handle for one in-flight remote subquery."""

    def __init__(
        self, client: "_WorkerClient", request_id: int, synced: bool
    ) -> None:
        self._client = client
        self.request_id = request_id
        #: True when this request shipped a fresh replica snapshot.
        self.synced = synced
        #: True when the worker served its epoch-validated result cache.
        self.cached = False
        self._event = threading.Event()
        self._frame: Optional[ResultFrame] = None
        self._error: Optional[BaseException] = None

    def deliver(self, frame: ResultFrame) -> None:
        """Reader-thread entry: hand the reply to the waiting caller."""
        self._frame = frame
        self.cached = frame.cached
        self._event.set()

    def fail(self, message: str) -> None:
        """Fail the waiter (worker death, pool shutdown)."""
        self._error = ServiceError(message)
        self._event.set()

    def abandon(self) -> None:
        """Drop the reply when it arrives; the caller stopped waiting."""
        self._client.discard(self.request_id)

    def result(self, deadline: Deadline) -> SubqueryResult:
        """Block (deadline-bounded) for the reply and decode it."""
        while not self._event.is_set():
            remaining = deadline.remaining()  # raises when expired
            self._event.wait(
                0.05 if remaining is None else min(remaining, 0.05)
            )
        if self._error is not None:
            raise self._error
        frame = self._frame
        assert frame is not None
        if frame.violations:
            raise ServiceError(
                "worker lock-order sanitizer: %s"
                % "; ".join(frame.violations)
            )
        if frame.error is not None:
            raise decode_error(frame.error)
        assert frame.payload is not None
        return decode_result(frame.payload)


class _WorkerClient:
    """Parent-side endpoint of one worker process.

    All shared state — the request outbox, queued sync frames, the
    pending-reply table, and the pipe's send side — is guarded by one
    mutex (``_lock``).  Callers enqueue while holding their shard read
    locks, establishing the shard-lock → client-lock order the static
    lockgraph models; nothing is ever acquired *under* the client
    lock, so the hierarchy stays acyclic.  The reply-reader thread and
    the worker process both start lazily on first use, which lets the
    sanitizer swap ``_lock`` for an instrumented wrapper right after
    construction.
    """

    def __init__(self, ctx, worker_index: int, sanitize: bool) -> None:
        self.worker_index = worker_index
        self._lock = threading.Lock()
        self._ctx = ctx
        self._sanitize = sanitize
        self._ids = itertools.count()
        self._pending: Dict[int, _PendingReply] = {}
        self._outbox: List[SubqueryRequest] = []
        self._sync_outbox: Dict[Tuple[str, str], SyncFrame] = {}
        #: Last epoch shipped per (shard, collection).
        self._synced: Dict[Tuple[str, str], int] = {}
        self._conn = None
        self._proc = None
        self._reader: Optional[threading.Thread] = None
        self._dead_reason: Optional[str] = None
        self._closed = False

    # -- request path (caller holds the shard read lock) -----------------------

    def enqueue(
        self,
        shard_id: str,
        collection: Collection,
        spec: SubquerySpec,
        shape_key: Optional[Tuple[Any, ...]],
        exact_key: Optional[Tuple[Any, ...]],
        stall_ms: float,
    ) -> _PendingReply:
        """Queue one subquery (and any missing snapshot) for this worker.

        The caller must hold ``shard_id``'s read lock: the epoch is
        read and the snapshot pickled *here*, so no writer can slide
        between epoch capture and payload capture.
        """
        epoch = collection.mutation_count
        with self._lock:
            if self._closed:
                raise ServiceError("shard worker pool is shut down")
            self._ensure_worker_locked()
            key = (shard_id, spec.collection)
            synced = False
            if self._synced.get(key) != epoch:
                self._sync_outbox[key] = SyncFrame(
                    shard_id=shard_id,
                    collection=spec.collection,
                    epoch=epoch,
                    payload=make_sync_payload(collection),
                )
                self._synced[key] = epoch
                synced = True
            request_id = next(self._ids)
            pending = _PendingReply(self, request_id, synced=synced)
            self._pending[request_id] = pending
            plan = PlanMessage(
                collection=spec.collection,
                query=spec.query,
                hint=spec.hint,
                max_geo_ranges=spec.max_geo_ranges,
                fast_path=True,  # read by no worker; see PlanMessage
                shape_key=shape_key,
                exact_key=exact_key,
                epoch=epoch,
                stall_ms=stall_ms,
            )
            self._outbox.append(
                SubqueryRequest(
                    request_id=request_id, shard_id=shard_id, plan=plan
                )
            )
        return pending

    def flush(self) -> None:
        """Send everything queued as one batch frame, in arrival order.

        Whoever flushes first drains the *whole* outbox — including
        requests other threads enqueued since — so concurrent queries
        coalesce into one round-trip and a queued sync frame can never
        be overtaken by a request that depends on it.
        """
        with self._lock:
            if self._dead_reason is not None or self._conn is None:
                return
            if not self._outbox and not self._sync_outbox:
                return
            syncs = tuple(self._sync_outbox.values())
            self._sync_outbox.clear()
            frame = BatchFrame(syncs=syncs, requests=tuple(self._outbox))
            self._outbox = []
            try:
                self._conn.send(frame)
            except (BrokenPipeError, OSError):
                self._dead_reason = "shard worker process died mid-send"
                self._fail_pending_locked(self._dead_reason)

    def discard(self, request_id: int) -> None:
        """Forget a pending reply; the worker's answer will be dropped."""
        with self._lock:
            self._pending.pop(request_id, None)

    def synced_epoch(self, shard_id: str, collection: str) -> Optional[int]:
        """Last shipped epoch for a namespace (introspection/tests)."""
        with self._lock:
            return self._synced.get((shard_id, collection))

    # -- worker lifecycle ------------------------------------------------------

    def _ensure_worker_locked(self) -> None:
        """Spawn (or respawn after death) the worker process."""
        if (
            self._proc is not None
            and self._dead_reason is None
            and self._proc.is_alive()
        ):
            return
        if self._sanitize and worker_instrumenter is None:
            raise ServiceError(
                "%s is set but no worker instrumenter is registered; "
                "import repro.sanitizer before spawning shard workers"
                % ENV_WORKER_SANITIZE
            )
        self._dead_reason = None
        self._synced.clear()
        parent_conn, child_conn = self._ctx.Pipe()
        self._conn = parent_conn
        self._proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._sanitize),
            daemon=True,
            name="repro-shard-worker-%d" % self.worker_index,
        )
        self._proc.start()
        child_conn.close()
        self._reader = threading.Thread(
            target=self._reader_main,
            args=(parent_conn,),
            daemon=True,
            name="repro-worker-reader-%d" % self.worker_index,
        )
        self._reader.start()

    def _reader_main(self, conn) -> None:
        """Dispatch reply frames to their pending waiters until EOF."""
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                with self._lock:
                    if conn is self._conn:
                        self._dead_reason = "shard worker process died"
                        self._fail_pending_locked(self._dead_reason)
                return
            if isinstance(frame, ResultFrame):
                with self._lock:
                    pending = self._pending.pop(frame.request_id, None)
                if pending is not None:
                    pending.deliver(frame)

    def _fail_pending_locked(self, reason: str) -> None:
        for pending in self._pending.values():
            pending.fail(reason)
        self._pending.clear()

    def close(self) -> None:
        """Stop the worker process and fail anything still in flight."""
        with self._lock:
            self._closed = True
            conn = self._conn
            proc = self._proc
            self._fail_pending_locked("shard worker pool is shut down")
            if conn is not None and self._dead_reason is None:
                try:
                    conn.send(ShutdownFrame())
                except (BrokenPipeError, OSError):
                    pass
            self._dead_reason = "shard worker pool is shut down"
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


class ShardWorkerPool:
    """Process-parallel backend: shard groups served by worker processes.

    Shards are assigned round-robin over ``executor_workers`` (default
    ``max_workers``) worker processes; each worker hosts replicas for
    its shards only, so the pool's lock topology per process is: the
    parent's shard read lock (already held by the caller) → that
    worker's client mutex, and *inside* a worker a single host mutex
    with nothing nested under it.
    """

    name = "process"

    def __init__(
        self,
        cluster: "ShardedCluster",
        config: "ServiceConfig",
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.metrics = metrics
        #: Test hook (satellite: stalled-worker coverage): per-shard
        #: artificial delay injected into each plan message.
        self.debug_stall_ms: Dict[str, float] = {}
        workers = config.executor_workers or config.max_workers
        workers = max(1, min(workers, len(cluster.shards)))
        sanitize = os.environ.get(ENV_WORKER_SANITIZE, "") not in ("", "0")
        ctx = multiprocessing.get_context("fork")
        self._workers: List[_WorkerClient] = [
            _WorkerClient(ctx, index, sanitize)
            for index in range(workers)
        ]
        self._clients: Dict[str, _WorkerClient] = {}
        for index, shard_id in enumerate(sorted(cluster.shards)):
            self._clients[shard_id] = self._workers[index % workers]

    def clients(self) -> List[_WorkerClient]:
        """The distinct worker clients (instrumentation/tests)."""
        return list(self._workers)

    def client_for(self, shard_id: str) -> _WorkerClient:
        """The client owning a shard (introspection/tests)."""
        return self._clients[shard_id]

    def shard_mapper(self, spec: SubquerySpec, deadline: Deadline):
        """The fan-out hook passed to :meth:`ShardedCluster.find`.

        The ``fn`` the cluster hands over is ignored: subqueries run
        in the worker processes from the plan message, not through the
        parent-side closure.  Results are decoded into objects with
        the same ``documents``/``stats`` attributes ``run_shard``
        returns, so the cluster's merge path is untouched.
        """
        shape_key = query_shape_key(
            spec.collection,
            spec.shape if spec.shape is not None else spec.query,
        )
        exact_key = exact_query_key(spec.collection, spec.query)

        def mapper(fn, shard_ids):
            del fn  # executed remotely from the plan message
            ids = list(shard_ids)
            pendings: List[Tuple[str, _PendingReply]] = []
            touched: List[_WorkerClient] = []
            for shard_id in ids:
                deadline.remaining()  # raises when expired
                client: _WorkerClient = self._clients[shard_id]
                col = self.cluster.shards[shard_id].collection(
                    spec.collection
                )
                pending = client.enqueue(
                    shard_id,
                    col,
                    spec,
                    shape_key,
                    exact_key,
                    self.debug_stall_ms.get(shard_id, 0.0),
                )
                pendings.append((shard_id, pending))
                if client not in touched:
                    touched.append(client)
            for client in touched:
                client.flush()
            out = []
            try:
                for shard_id, pending in pendings:
                    result = pending.result(deadline)
                    out.append((shard_id, result))
            except BaseException:
                # Abandon the fan-out: replies still in flight are
                # dropped by request id.  Unlike the threaded path no
                # drain is needed before the caller releases its read
                # locks — remote subqueries only touch worker-local
                # replicas and cannot race a parent-side writer.
                for _shard_id, pending in pendings:
                    pending.abandon()
                raise
            if self.metrics is not None:
                for _shard_id, pending in pendings:
                    self.metrics.record_remote(
                        cached=pending.cached, synced=pending.synced
                    )
            return out

        return mapper

    def shutdown(self) -> None:
        """Stop every worker process."""
        for client in self._workers:
            client.close()


# -- worker-process side -------------------------------------------------------


class _CachedResult:
    """One epoch-stamped entry of a worker's result cache."""

    __slots__ = ("epoch", "payload")

    def __init__(self, epoch: int, payload: bytes) -> None:
        self.epoch = epoch
        self.payload = payload


class _WorkerHost:
    """The worker process's state: replicas, caches, and one mutex.

    The event loop is single-threaded, but all replica and cache state
    is still guarded by ``_lock``: the lock *is* the worker's declared
    topology (nothing may nest under it), the static lockgraph checks
    that claim on this source, and ``REPRO_WORKER_SANITIZE`` swaps in
    an instrumented wrapper so the claim is also checked at runtime —
    any future worker-side thread that violates it trips both oracles
    instead of corrupting a replica silently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._replicas: Dict[Tuple[str, str], Collection] = {}
        self._epochs: Dict[Tuple[str, str], int] = {}
        #: Result LRU: dicts preserve insertion order, and hits
        #: re-insert their entry, so eviction pops the real LRU head.
        self._results: Dict[Tuple[Any, ...], _CachedResult] = {}
        self._sanitizer = None

    def violations(self) -> Tuple[str, ...]:
        """Rendered sanitizer violations (empty when clean/uninstrumented)."""
        if self._sanitizer is None:
            return ()
        return tuple(
            "%s: %s" % (v.kind, v.detail)
            for v in self._sanitizer.violations()
        )

    def handle_batch(self, frame: BatchFrame):
        """Apply syncs, then serve each request in arrival order.

        One frame is one pickle, so the shard requests of one query
        share its query object: each distinct object is planned once
        per frame, in ``bound``.
        """
        for sync in frame.syncs:
            with self._lock:
                self._apply_sync_locked(sync)
        bound: Dict[tuple, tuple] = {}
        for request in frame.requests:
            yield self._serve(request, bound)

    def _serve(
        self,
        request: SubqueryRequest,
        bound: Dict[tuple, tuple],
    ) -> ResultFrame:
        plan = request.plan
        if plan.stall_ms > 0.0:
            time.sleep(plan.stall_ms / 1000.0)
        try:
            with self._lock:
                payload, cached = self._execute_locked(
                    request.shard_id, plan, bound
                )
        except Exception as exc:
            return ResultFrame(
                request_id=request.request_id,
                error=encode_error(exc),
                violations=self.violations(),
            )
        return ResultFrame(
            request_id=request.request_id,
            payload=payload,
            cached=cached,
            violations=self.violations(),
        )

    def _apply_sync_locked(self, sync: SyncFrame) -> None:
        definitions, documents = load_sync_payload(sync.payload)
        key = (sync.shard_id, sync.collection)
        self._replicas[key] = Collection.from_snapshot(
            sync.collection, definitions, documents
        )
        self._epochs[key] = sync.epoch

    def _execute_locked(
        self,
        shard_id: str,
        plan: PlanMessage,
        bound: Dict[tuple, tuple],
    ) -> Tuple[bytes, bool]:
        key = (shard_id, plan.collection)
        replica = self._replicas.get(key)
        if replica is None or self._epochs.get(key) != plan.epoch:
            raise ServiceError(
                "worker replica for %s/%s is stale (have epoch %s, "
                "need %s)"
                % (shard_id, plan.collection, self._epochs.get(key),
                   plan.epoch)
            )
        cache_key = None
        if plan.exact_key is not None:
            cache_key = (
                shard_id,
                plan.collection,
                plan.exact_key,
                plan.hint,
                plan.max_geo_ranges,
            )
            entry = self._results.get(cache_key)
            if entry is not None and entry.epoch == plan.epoch:
                # Sound by construction: replica content only changes
                # through epoch-bumping sync frames, so an epoch match
                # means re-execution would produce these exact bytes.
                del self._results[cache_key]
                self._results[cache_key] = entry
                return entry.payload, True
        memo = (id(plan.query), plan.collection, plan.hint)
        if memo not in bound:
            bound[memo] = plan_read(plan.collection, plan.query, plan.hint)
        shape, matcher, _outcome = bound[memo]
        result = replica.find_with_stats(
            plan.query,
            hint=plan.hint,
            max_geo_ranges=plan.max_geo_ranges,
            matcher=matcher,
            shape=shape,
        )
        payload = encode_result(result.documents, result.stats)
        if cache_key is not None:
            self._results[cache_key] = _CachedResult(plan.epoch, payload)
            while len(self._results) > WORKER_CACHE_SIZE:
                oldest = next(iter(self._results))
                del self._results[oldest]
        return payload, False


def _worker_main(conn, sanitize: bool) -> None:
    """The worker process's event loop: recv frames, send replies."""
    host = _WorkerHost()
    if sanitize:
        # Registered by repro.sanitizer.instrument in the parent and
        # inherited through fork; _ensure_worker_locked refused to
        # spawn if it was missing.
        assert worker_instrumenter is not None
        worker_instrumenter(host)
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if isinstance(frame, ShutdownFrame):
            break
        if isinstance(frame, BatchFrame):
            try:
                for reply in host.handle_batch(frame):
                    conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass
