"""Execution backends for the query service's shard fan-out.

:class:`~repro.service.service.QueryService` delegates per-shard
subquery execution to an *executor*:

* :class:`ThreadedExecutor` — subqueries run in the calling thread,
  one after another, directly against the cluster's collections; the
  service's reads hold its lock exclusively, one at a time in arrival
  order.
* :class:`ShardWorkerPool` — process-parallel serving: each shard (or
  shard group) is assigned to a worker *process*, a fork of the parent
  that serves its shards' collections as they were at the fork.
  Subqueries travel as compact picklable plan messages
  (:mod:`repro.service.wire`), queued subqueries are coalesced into
  one batch frame per worker round-trip, and the worker answers each
  batch with one reply frame.  A worker replies with record ids and
  counters only: the parent copies the documents from its own
  collection, which holds them at the same epoch under the service
  lock the caller keeps, shared, until the merge.

Replication contract (what makes results identical):

* The parent is authoritative.  Writes and DDL run parent-side under
  the service lock, held exclusively, and bump the collection's
  ``mutation_count`` epoch.
* A fork is the sync.  A worker is forked with the parent's live
  collections of its shards; it inherits them copy-on-write, rids,
  indexes and all, so every rid and counter it returns is the
  parent's.  The client records each hosted collection's epoch at the
  fork, and an enqueue that finds the epoch moved (or the collection
  new) retires the worker and forks a fresh one.
* The fork invariant: a worker is forked under the service lock held
  shared, and every write holds it exclusively, so no hosted
  collection is mid-write at the fork.  (An epoch check after the fork
  could not replace that: ``delete_many`` bumps the epoch before it
  mutates.)  Shard-scoped writes would first have to make the fork
  lock every shard the worker hosts.
* Every plan message carries the epoch it was targeted at; a worker
  refuses to serve a collection whose epoch differs, and the parent
  refuses a reply whose epoch differs or that names a rid its own
  collection does not hold.  Because readers hold the service lock
  from epoch capture through the copy, and writers exclude readers, a
  shipped epoch can never be stale by the time the worker executes
  it — the refusals are tripwires, not a retry protocol.

Deadline semantics: an expired deadline abandons the read's queued
and in-flight subqueries (unsent ones leave the outbox, replies are
dropped by request id) and the service releases its hold of the lock
immediately.  That is safe because a remote subquery only touches the
worker's own copy-on-write image — it cannot race a parent-side
writer that acquires the freed lock.  The threaded path
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
from repro.docstore.executor import ExecutionStats
from repro.docstore.matcher import parse_query
from repro.errors import QueryTimeoutError, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.wire import (
    BatchFrame,
    PlanMessage,
    ReplyFrame,
    ResultFrame,
    ShutdownFrame,
    SubqueryRequest,
    SubqueryResult,
    decode_error,
    decode_result,
    encode_error,
    encode_result,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ShardedCluster
    from repro.cluster.shard import Shard
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

    ``hint`` is the caller's explicit hint (or None) — the same
    objects the service hands to :meth:`ShardedCluster.find`, so both
    backends execute the identical plan.
    """

    collection: str
    query: Mapping[str, Any]
    hint: Optional[str]
    max_geo_ranges: Optional[int]


class ThreadedExecutor:
    """The in-process backend: shard subqueries in the caller's thread.

    Under the GIL a pool of threads buys no parallelism, only hand-offs.
    A read's subqueries run one after another, in targeting order, in
    the thread that called :meth:`QueryService.find` — which holds the
    service lock exclusively, so concurrent reads take turns in arrival
    order.  An expired deadline stops the fan-out between two shards;
    nothing else is running on the read's behalf, so the caller can
    release the lock at once.
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
        self, client: "_WorkerClient", request_id: int, epoch: int, forked: bool
    ) -> None:
        self._client = client
        self.request_id = request_id
        #: The epoch the subquery was sent at; the reply must match it.
        self.epoch = epoch
        #: True when this request forked the worker that serves it.
        self.forked = forked
        #: The pipe the request went out on; None while it is queued.
        self.sent_on: Any = None
        self._event = threading.Event()
        self._frame: Optional[ResultFrame] = None
        self._violations: Tuple[str, ...] = ()
        self._error: Optional[BaseException] = None

    def deliver(self, frame: ResultFrame, violations: Tuple[str, ...]) -> None:
        """Reader-thread entry: hand the reply to the waiting caller."""
        self._frame = frame
        self._violations = violations
        self._event.set()

    def fail(self, message: str) -> None:
        """Fail the waiter (worker death, pool shutdown)."""
        self._error = ServiceError(message)
        self._event.set()

    def abandon(self) -> None:
        """Drop the reply when it arrives; the caller stopped waiting."""
        self._client.discard(self.request_id)

    def result(self, deadline: Deadline) -> Tuple[List[int], ExecutionStats]:
        """Block (deadline-bounded) for the reply: ``(rids, stats)``."""
        while not self._event.is_set():
            remaining = deadline.remaining()  # raises when expired
            self._event.wait(
                0.05 if remaining is None else min(remaining, 0.05)
            )
        if self._error is not None:
            raise self._error
        frame = self._frame
        assert frame is not None
        if self._violations:
            raise ServiceError(
                "worker lock-order sanitizer: %s"
                % "; ".join(self._violations)
            )
        if frame.error is not None:
            raise decode_error(frame.error)
        assert frame.payload is not None
        if frame.epoch != self.epoch:
            raise ServiceError(
                "shard worker answered at epoch %s, the query was sent "
                "at epoch %s" % (frame.epoch, self.epoch)
            )
        return decode_result(frame.payload)


class _WorkerClient:
    """Parent-side endpoint of one worker process.

    All shared state — the request outbox, the pending-reply table, the
    hosted epochs, and the pipe's send side — is guarded by one mutex
    (``_lock``).  Callers enqueue while holding the service lock
    shared, establishing the service-lock → client-lock order the
    static lockgraph models; nothing is ever acquired *under* the client
    lock, so the hierarchy stays acyclic.  The worker process and its
    reply-reader thread start lazily on first use, which lets the
    sanitizer swap ``_lock`` for an instrumented wrapper right after
    construction, and again whenever a hosted collection's epoch moved.
    """

    def __init__(
        self,
        ctx,
        worker_index: int,
        sanitize: bool,
        shards: Mapping[str, "Shard"],
    ) -> None:
        self.worker_index = worker_index
        self._lock = threading.Lock()
        self._ctx = ctx
        self._sanitize = sanitize
        #: The shards this worker serves, by id.
        self._shards = shards
        self._ids = itertools.count()
        self._pending: Dict[int, _PendingReply] = {}
        self._outbox: List[SubqueryRequest] = []
        #: Each hosted (shard, collection)'s epoch at the worker's fork.
        self._epochs: Dict[Tuple[str, str], int] = {}
        self._conn = None
        self._proc = None
        self._reader: Optional[threading.Thread] = None
        self._dead_reason: Optional[str] = None
        self._closed = False

    # -- request path (caller holds the service lock shared) ------------------

    def enqueue(
        self,
        shard_id: str,
        collection: Collection,
        spec: SubquerySpec,
        stall_ms: float,
    ) -> _PendingReply:
        """Queue one subquery for this worker, forking a fresh one first
        when the live one holds the collection at another epoch.

        The caller must hold the service lock shared: the epoch is read
        and any fork taken *here*, while no writer can be mid-write in
        any collection the fork copies (every write holds the service
        lock exclusively).
        """
        epoch = collection.mutation_count
        with self._lock:
            if self._closed:
                raise ServiceError("shard worker pool is shut down")
            forked = self._ensure_worker_locked(
                (shard_id, spec.collection), epoch
            )
            request_id = next(self._ids)
            pending = _PendingReply(self, request_id, epoch, forked)
            self._pending[request_id] = pending
            plan = PlanMessage(
                collection=spec.collection,
                query=spec.query,
                hint=spec.hint,
                max_geo_ranges=spec.max_geo_ranges,
                fast_path=True,  # read by no worker; see PlanMessage
                shape_key=None,
                exact_key=None,
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
        coalesce into one round-trip.
        """
        with self._lock:
            conn = self._conn
            if self._dead_reason is not None or conn is None:
                return
            if not self._outbox:
                return
            requests = tuple(self._outbox)
            self._outbox = []
            for request in requests:
                pending = self._pending.get(request.request_id)
                if pending is not None:
                    pending.sent_on = conn
            try:
                conn.send(BatchFrame(requests=requests))
            except (BrokenPipeError, OSError):
                self._dead_reason = "shard worker process died mid-send"
                self._fail_pending_locked(self._dead_reason)

    def discard(self, request_id: int) -> None:
        """Withdraw a request: unsent, it never goes; sent, its reply is dropped."""
        with self._lock:
            self._pending.pop(request_id, None)
            self._outbox = [
                r for r in self._outbox if r.request_id != request_id
            ]

    # -- worker lifecycle ------------------------------------------------------

    def _ensure_worker_locked(self, key: Tuple[str, str], epoch: int) -> bool:
        """Fork a worker unless the live one holds ``key`` at ``epoch``.

        Returns True when it forked.  The worker it replaces — dead, or
        holding a stale or missing copy of the collection — is retired
        first.
        """
        if (
            self._proc is not None
            and self._dead_reason is None
            and self._epochs.get(key) == epoch
            and self._proc.is_alive()
        ):
            return False
        if self._sanitize and worker_instrumenter is None:
            raise ServiceError(
                "%s is set but no worker instrumenter is registered; "
                "import repro.sanitizer before spawning shard workers"
                % ENV_WORKER_SANITIZE
            )
        self._retire_locked()
        hosted = {
            (shard_id, name): shard.collection(name)
            for shard_id, shard in self._shards.items()
            for name in shard.database.list_collections()
        }
        self._epochs = {
            namespace: collection.mutation_count
            for namespace, collection in hosted.items()
        }
        parent_conn, child_conn = self._ctx.Pipe()
        # A fork context: the collections reach the child as its
        # copy-on-write image, not as a pickle.
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, hosted, self._sanitize),
            daemon=True,
            name="repro-shard-worker-%d" % self.worker_index,
        )
        proc.start()
        child_conn.close()
        self._conn = parent_conn
        self._proc = proc
        self._dead_reason = None
        self._reader = threading.Thread(
            target=self._reader_main,
            args=(parent_conn, proc),
            daemon=True,
            name="repro-worker-reader-%d" % self.worker_index,
        )
        self._reader.start()
        return True

    def _retire_locked(self) -> None:
        """Ask the live worker to exit once it has answered its batches.

        The worker serves the frames before the shutdown in order, at
        the epochs they were checked against.  Its reader thread then
        reads EOF, fails whatever went unanswered, closes the pipe and
        reaps the process — outside this lock.  Requests still in the
        outbox go to the next worker.
        """
        conn = self._conn
        if conn is None:
            return
        self._conn = self._proc = None
        if self._dead_reason is None:
            try:
                conn.send(ShutdownFrame())
            except (BrokenPipeError, OSError):
                pass

    def _reader_main(self, conn, proc) -> None:
        """Dispatch reply frames to their pending waiters until EOF.

        At EOF the worker is gone (retired, shut down or dead): fail
        what it was sent and did not answer — everything, when it was
        the live worker — then close the pipe and reap the process.
        """
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break
            if isinstance(frame, ReplyFrame):
                with self._lock:
                    waiters = [
                        (self._pending.pop(result.request_id, None), result)
                        for result in frame.results
                    ]
                for pending, result in waiters:
                    if pending is not None:
                        pending.deliver(result, frame.violations)
        with self._lock:
            if conn is self._conn:
                self._dead_reason = "shard worker process died"
                self._fail_pending_locked(self._dead_reason)
            else:
                self._fail_pending_locked("shard worker process died", conn)
        conn.close()
        proc.join()

    def _fail_pending_locked(self, reason: str, sent_on: Any = None) -> None:
        """Fail every waiter, or only those whose request went on ``sent_on``."""
        for request_id, pending in list(self._pending.items()):
            if sent_on is None or pending.sent_on is sent_on:
                pending.fail(reason)
                del self._pending[request_id]

    def close(self) -> None:
        """Stop the worker process and fail anything still in flight."""
        with self._lock:
            self._closed = True
            proc = self._proc
            reader = self._reader
            self._fail_pending_locked("shard worker pool is shut down")
            self._retire_locked()
            self._dead_reason = "shard worker pool is shut down"
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if reader is not None:
            reader.join(timeout=5.0)


class ShardWorkerPool:
    """Process-parallel backend: shard groups served by worker processes.

    Shards are assigned round-robin over ``executor_workers`` (default
    ``max_workers``) worker processes; each worker serves its shards
    only, so the pool's lock topology per process is: the parent's
    service lock (held shared by the caller) → that worker's client
    mutex, and *inside* a worker a single host mutex with
    nothing nested under it.
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
        shard_ids = sorted(cluster.shards)
        self._workers: List[_WorkerClient] = [
            _WorkerClient(
                ctx,
                index,
                sanitize,
                {s: cluster.shards[s] for s in shard_ids[index::workers]},
            )
            for index in range(workers)
        ]
        self._clients: Dict[str, _WorkerClient] = {
            shard_id: self._workers[index % workers]
            for index, shard_id in enumerate(shard_ids)
        }

    def clients(self) -> List[_WorkerClient]:
        """The distinct worker clients (instrumentation/tests)."""
        return list(self._workers)

    def shard_mapper(self, spec: SubquerySpec, deadline: Deadline):
        """The fan-out hook passed to :meth:`ShardedCluster.find`.

        The ``fn`` the cluster hands over is ignored: subqueries run
        in the worker processes from the plan message, not through the
        parent-side closure.  Each worker returns record ids; the
        parent copies those documents from its own collection, along
        their stored shapes as the threaded path does, into objects
        with the ``documents``/``stats`` attributes ``run_shard``
        returns, so the cluster's merge path is untouched.
        """

        def mapper(fn, shard_ids):
            del fn  # executed remotely from the plan message
            pendings: List[Tuple[str, Collection, _PendingReply]] = []
            touched: List[_WorkerClient] = []
            out = []
            try:
                for shard_id in shard_ids:
                    deadline.remaining()  # raises when expired
                    client: _WorkerClient = self._clients[shard_id]
                    col = self.cluster.shards[shard_id].collection(
                        spec.collection
                    )
                    pending = client.enqueue(
                        shard_id,
                        col,
                        spec,
                        self.debug_stall_ms.get(shard_id, 0.0),
                    )
                    pendings.append((shard_id, col, pending))
                    if client not in touched:
                        touched.append(client)
                for client in touched:
                    client.flush()
                for shard_id, col, pending in pendings:
                    rids, stats = pending.result(deadline)
                    try:
                        documents = col.copy_results(rids)
                    except KeyError as exc:
                        raise ServiceError(
                            "shard worker returned record id %s, which "
                            "%s/%s does not hold"
                            % (exc, shard_id, spec.collection)
                        ) from None
                    out.append((shard_id, SubqueryResult(documents, stats)))
            except BaseException:
                # Abandon the fan-out, queued or in flight: unsent
                # requests leave the outbox and replies still to come
                # are dropped by request id.  Unlike the threaded path
                # no drain is needed before the caller releases the
                # service lock — remote subqueries only touch the
                # workers' own copy-on-write images and cannot race a
                # parent-side writer.
                for _shard_id, _col, pending in pendings:
                    pending.abandon()
                raise
            if self.metrics is not None:
                for _shard_id, _col, pending in pendings:
                    self.metrics.record_remote(forked=pending.forked)
            return out

        return mapper

    def shutdown(self) -> None:
        """Stop every worker process."""
        for client in self._workers:
            client.close()


# -- worker-process side -------------------------------------------------------


class _WorkerHost:
    """The worker process's state: the collections it serves, one mutex.

    The collections are the parent's, inherited through the fork and
    only ever read here.  The event loop is single-threaded, but the
    serving state is still guarded by ``_lock``: the lock *is* the
    worker's declared topology (nothing may nest under it), the static
    lockgraph checks that claim on this source, and
    ``REPRO_WORKER_SANITIZE`` swaps in an instrumented wrapper so the
    claim is also checked at runtime — any future worker-side thread
    that violates it trips both oracles.
    """

    def __init__(self, hosted: Mapping[Tuple[str, str], Collection]) -> None:
        self._lock = threading.Lock()
        self._hosted = hosted
        self._sanitizer = None

    def violations(self) -> Tuple[str, ...]:
        """Rendered sanitizer violations (empty when clean/uninstrumented)."""
        if self._sanitizer is None:
            return ()
        return tuple(
            "%s: %s" % (v.kind, v.detail)
            for v in self._sanitizer.violations()
        )

    def handle_batch(self, frame: BatchFrame) -> ReplyFrame:
        """Serve each request in arrival order.

        One frame is one pickle, so the shard requests of one query
        share its query object: each distinct object is parsed once
        per frame, in ``parsed``.
        """
        parsed: Dict[int, tuple] = {}
        results = tuple(
            self._serve(request, parsed) for request in frame.requests
        )
        return ReplyFrame(results=results, violations=self.violations())

    def _serve(
        self,
        request: SubqueryRequest,
        parsed: Dict[int, tuple],
    ) -> ResultFrame:
        plan = request.plan
        if plan.stall_ms > 0.0:
            time.sleep(plan.stall_ms / 1000.0)
        try:
            with self._lock:
                payload, epoch = self._execute_locked(
                    request.shard_id, plan, parsed
                )
        except Exception as exc:
            return ResultFrame(
                request_id=request.request_id, error=encode_error(exc)
            )
        return ResultFrame(
            request_id=request.request_id, payload=payload, epoch=epoch
        )

    def _execute_locked(
        self,
        shard_id: str,
        plan: PlanMessage,
        parsed: Dict[int, tuple],
    ) -> Tuple[bytes, int]:
        """The encoded ``(rids, counters)`` and the epoch they ran at."""
        collection = self._hosted.get((shard_id, plan.collection))
        epoch = None if collection is None else collection.mutation_count
        if collection is None or epoch != plan.epoch:
            raise ServiceError(
                "worker copy of %s/%s is stale (have epoch %s, need %s)"
                % (shard_id, plan.collection, epoch, plan.epoch)
            )
        pair = parsed.get(id(plan.query))
        if pair is None:
            pair = parsed[id(plan.query)] = parse_query(plan.query)
        shape, matcher = pair
        rids, stats, _plan = collection.find_rids(
            plan.query,
            hint=plan.hint,
            max_geo_ranges=plan.max_geo_ranges,
            matcher=matcher,
            shape=shape,
        )
        return encode_result(rids, stats), epoch


def _worker_main(
    conn, hosted: Mapping[Tuple[str, str], Collection], sanitize: bool
) -> None:
    """The worker process's event loop: recv frames, send replies."""
    host = _WorkerHost(hosted)
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
                conn.send(host.handle_batch(frame))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass
