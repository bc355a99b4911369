"""Execution backends for the query service's reads.

:class:`~repro.service.service.QueryService` delegates a read's shard
work to an *executor*:

* :class:`ThreadedExecutor` — subqueries run in the calling thread,
  one after another, directly against the cluster's collections; the
  service's reads hold its lock exclusively, one at a time in arrival
  order.
* :class:`ShardWorkerPool` — process-parallel serving: each read goes
  whole to one worker *process*, a fork of the parent that holds the
  whole cluster — every shard's collections and the chunk map — as it
  was at the fork.  The worker parses the read once, routes it on its
  forked chunk map, runs the match step on each targeted shard in
  targeting order and answers with the routing and one ``(rids,
  counters)`` payload per shard (:mod:`repro.service.wire`).  The
  parent neither parses nor routes: it copies the documents from its
  own store, which holds them at the same epoch under the service lock
  the caller keeps, shared, until the merge.  Parallelism comes from
  reads running side by side on different workers, not from splitting
  one read.

Replication contract (what makes results identical):

* The parent is authoritative.  Writes and DDL run parent-side under
  the service lock, held exclusively, and move the collection's read
  epoch (:meth:`~repro.cluster.cluster.ShardedCluster.read_epoch`:
  ``metadata_version`` for routing, each shard's ``mutation_count``
  for content and DDL).
* A fork is the sync.  A worker inherits the parent's live cluster
  copy-on-write, rids, indexes, chunk map and all, so every rid, shard
  id and counter it returns is the parent's.  The client records every
  collection's read epoch at the fork; a read that finds any worker
  behind its epoch forks every such worker afresh before it is sent.
* The fork invariant: a worker is forked under the service lock held
  shared, and every write holds it exclusively, so no collection and
  no chunk map is mid-write at the fork.  (An epoch check after the
  fork could not replace that: ``delete_many`` bumps the epoch before
  it mutates.)
* Every plan message carries the read epoch it was sent at; a worker
  refuses a read at any epoch but its own, and the parent refuses a
  reply at another epoch or one that names a rid its own collection
  does not hold.  Because readers hold the service lock from epoch
  capture through the copy, and writers exclude readers, a shipped
  epoch can never be stale by the time the worker executes it — the
  refusals are tripwires, not a retry protocol.

Deadline semantics: an expired deadline abandons the read (its reply
is dropped by request id) and the service releases its hold of the
lock immediately.  That is safe because a worker only touches its own
copy-on-write image — it cannot race a parent-side writer that
acquires the freed lock.  The threaded path has nothing in flight to
abandon: its deadline is checked between shards in the caller's own
thread.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.cluster.cluster import ClusterFindResult, ClusterMatch
from repro.errors import QueryTimeoutError, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.wire import (
    PlanMessage,
    ReadRequest,
    ResultFrame,
    ShutdownFrame,
    decode_error,
    decode_result,
    encode_error,
    encode_result,
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
    """Everything an executor needs to run one read.

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
    """Parent-side handle for one read in flight on a worker."""

    def __init__(
        self, client: "_WorkerClient", request_id: int, epoch: Any, sent_on: Any
    ) -> None:
        self._client = client
        self.request_id = request_id
        #: The read epoch the read was sent at; the reply must match it.
        self.epoch = epoch
        #: The pipe the request went out on.
        self.sent_on = sent_on
        self._event = threading.Event()
        self._frame: Optional[ResultFrame] = None
        self._error: Optional[BaseException] = None

    def deliver(self, frame: ResultFrame) -> None:
        """Reader-thread entry: hand the reply to the waiting caller."""
        self._frame = frame
        self._event.set()

    def fail(self, message: str) -> None:
        """Fail the waiter (worker death, pool shutdown)."""
        self._error = ServiceError(message)
        self._event.set()

    def abandon(self) -> None:
        """Drop the reply when it arrives; the caller stopped waiting."""
        self._client.discard(self.request_id)

    def result(self, deadline: Deadline) -> ClusterMatch:
        """Block (deadline-bounded) for the reply, decoded."""
        if not self._event.wait(timeout=deadline.remaining()):
            raise QueryTimeoutError("query exceeded its deadline")
        if self._error is not None:
            raise self._error
        frame = self._frame
        assert frame is not None
        if frame.violations:
            raise ServiceError(
                "worker lock-order sanitizer: %s" % "; ".join(frame.violations)
            )
        if frame.error is not None:
            raise decode_error(frame.error)
        if frame.epoch != self.epoch:
            raise ServiceError(
                "shard worker answered at epoch %s, the read was sent "
                "at epoch %s" % (frame.epoch, self.epoch)
            )
        return ClusterMatch(
            list(frame.shard_ids),
            frame.broadcast,
            [decode_result(payload) for payload in frame.payloads],
            frame.plan_ms,
        )


class _WorkerClient:
    """Parent-side endpoint of one worker process.

    All shared state — the pending-reply table, the epochs recorded at
    the fork, and the pipe's send side — is guarded by one mutex
    (``_lock``).  Callers sync and send while holding the service lock
    shared, establishing the service-lock → client-lock order the
    static lockgraph models; nothing is ever acquired *under* the
    client lock, and no caller holds two client locks, so the hierarchy
    stays acyclic.  The worker process and its reply-reader thread
    start lazily on first use, which lets the sanitizer swap ``_lock``
    for an instrumented wrapper right after construction, and again
    whenever a read finds the worker behind its epoch.  The reader
    thread is the only code that reaps a worker process.
    """

    def __init__(
        self,
        ctx,
        worker_index: int,
        sanitize: bool,
        cluster: "ShardedCluster",
    ) -> None:
        self.worker_index = worker_index
        self._lock = threading.Lock()
        self._ctx = ctx
        self._sanitize = sanitize
        self._cluster = cluster
        self._ids = itertools.count()
        self._pending: Dict[int, _PendingReply] = {}
        #: Each collection's read epoch at the worker's fork; a
        #: collection no shard held then has ``_blank_epoch``.
        self._epochs: Dict[str, Any] = {}
        self._blank_epoch: Any = None
        self._conn = None
        self._proc = None
        self._reader: Optional[threading.Thread] = None
        self._dead_reason: Optional[str] = None
        self._closed = False

    # -- request path (caller holds the service lock shared) ------------------

    def in_flight(self) -> int:
        """Reads sent to this worker and not yet answered or abandoned."""
        return len(self._pending)

    def sync(self, collection: str, epoch: Any) -> bool:
        """Fork a fresh worker unless the live one serves ``collection``
        at ``epoch``; True when it forked.

        The caller must hold the service lock shared: the fork is taken
        *here*, while no writer can be mid-write anywhere in the
        cluster the fork copies (every write holds the service lock
        exclusively).  The worker it replaces — dead, or behind the
        epoch — is retired first.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("shard worker pool is shut down")
            if (
                self._proc is not None
                and self._dead_reason is None
                and self._epochs.get(collection, self._blank_epoch) == epoch
                # The sentinel turns readable when the process exits;
                # unlike is_alive() this does not reap it.
                and not wait([self._proc.sentinel], 0)
            ):
                return False
            if self._sanitize and worker_instrumenter is None:
                raise ServiceError(
                    "%s is set but no worker instrumenter is registered; "
                    "import repro.sanitizer before spawning shard workers"
                    % ENV_WORKER_SANITIZE
                )
            self._retire_locked()
            self._fork_locked()
            return True

    def submit(self, plan: PlanMessage) -> _PendingReply:
        """Send one read to the live worker; the reply comes back on
        the returned handle."""
        with self._lock:
            if self._closed:
                raise ServiceError("shard worker pool is shut down")
            conn = self._conn
            if conn is None or self._dead_reason is not None:
                raise ServiceError(
                    self._dead_reason or "no shard worker process is running"
                )
            request_id = next(self._ids)
            pending = _PendingReply(self, request_id, plan.epoch, conn)
            self._pending[request_id] = pending
            try:
                conn.send(ReadRequest(request_id=request_id, plan=plan))
            except (BrokenPipeError, OSError):
                self._dead_reason = "shard worker process died mid-send"
                self._fail_pending_locked(self._dead_reason)
        return pending

    def discard(self, request_id: int) -> None:
        """Withdraw a read: its reply, when it comes, is dropped."""
        with self._lock:
            self._pending.pop(request_id, None)

    # -- worker lifecycle ------------------------------------------------------

    def _fork_locked(self) -> None:
        """Fork a worker holding the cluster as it is now."""
        cluster = self._cluster
        names = {
            name
            for shard in cluster.shards.values()
            for name in shard.database.list_collections()
        }
        self._epochs = {name: cluster.read_epoch(name) for name in names}
        self._blank_epoch = (
            cluster.metadata_version,
            (None,) * len(cluster.shards),
        )
        parent_conn, child_conn = self._ctx.Pipe()
        # A fork context: the cluster reaches the child as its
        # copy-on-write image, not as a pickle.
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cluster, self._sanitize),
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

    def _retire_locked(self) -> None:
        """Ask the live worker to exit once it has answered its reads.

        The worker serves the requests before the shutdown in order, at
        the epochs they were checked against.  Its reader thread then
        reads EOF, fails whatever went unanswered, closes the pipe and
        reaps the process — outside this lock.
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
            if isinstance(frame, ResultFrame):
                with self._lock:
                    pending = self._pending.pop(frame.request_id, None)
                if pending is not None:
                    pending.deliver(frame)
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
        # The reader thread reaps the worker once it has exited.
        if proc is not None and not wait([proc.sentinel], 5.0):
            proc.terminate()
        if reader is not None:
            reader.join(timeout=5.0)


class ShardWorkerPool:
    """Process-parallel backend: whole reads served by worker processes.

    ``executor_workers`` (default ``max_workers``, at most one per
    shard) worker processes, each a fork of the whole cluster.  A read
    goes to the worker with the fewest reads in flight, the lowest
    index on ties.  The lock topology per process is: the parent's
    service lock (held shared by the caller) → one worker client's
    mutex at a time, and *inside* a worker a single host mutex with
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
        #: Test hook (stalled-worker coverage): per-shard artificial
        #: delay the worker sleeps before matching that shard.
        self.debug_stall_ms: Dict[str, float] = {}
        workers = config.executor_workers or config.max_workers
        workers = max(1, min(workers, len(cluster.shards)))
        sanitize = os.environ.get(ENV_WORKER_SANITIZE, "") not in ("", "0")
        ctx = multiprocessing.get_context("fork")
        self._workers: List[_WorkerClient] = [
            _WorkerClient(ctx, index, sanitize, cluster)
            for index in range(workers)
        ]

    def clients(self) -> List[_WorkerClient]:
        """The worker clients, by index (instrumentation/tests)."""
        return list(self._workers)

    def find(self, spec: SubquerySpec, deadline: Deadline) -> ClusterFindResult:
        """Serve one read on one worker; the caller holds the service
        lock shared from before this call until it returns.

        Forks every worker that is behind the read's epoch, sends the
        read to the least busy one, and copies and merges its reply
        from the parent's own store, as the threaded path does.
        """
        epoch = self.cluster.read_epoch(spec.collection)
        forks = sum(
            client.sync(spec.collection, epoch) for client in self._workers
        )
        if forks and self.metrics is not None:
            self.metrics.record_forks(forks)
        deadline.remaining()  # raises when expired
        client = min(self._workers, key=_WorkerClient.in_flight)
        pending = client.submit(
            PlanMessage(
                collection=spec.collection,
                query=spec.query,
                hint=spec.hint,
                max_geo_ranges=spec.max_geo_ranges,
                fast_path=True,  # read by no worker; see PlanMessage
                shape_key=None,
                exact_key=None,
                epoch=epoch,
                stall_ms=dict(self.debug_stall_ms),
            )
        )
        if self.metrics is not None:
            self.metrics.record_remote()
        try:
            match = pending.result(deadline)
        except BaseException:
            # The reply, if it ever comes, is dropped by request id.
            # Unlike the threaded path nothing needs draining before
            # the caller releases the service lock: the worker only
            # touches its own copy-on-write image.
            pending.abandon()
            raise
        try:
            return self.cluster.merge(spec.collection, match)
        except KeyError as exc:
            raise ServiceError(
                "shard worker returned record id %s, which the targeted "
                "shard's %s does not hold" % (exc, spec.collection)
            ) from None

    def shutdown(self) -> None:
        """Stop every worker process."""
        for client in self._workers:
            client.close()


# -- worker-process side -------------------------------------------------------


class _WorkerHost:
    """The worker process's state: the forked cluster, one mutex.

    The cluster is the parent's, inherited through the fork and only
    ever read here.  The event loop is single-threaded, but the
    serving state is still guarded by ``_lock``: the lock *is* the
    worker's declared topology (nothing may nest under it), the static
    lockgraph checks that claim on this source, and
    ``REPRO_WORKER_SANITIZE`` swaps in an instrumented wrapper so the
    claim is also checked at runtime — any future worker-side thread
    that violates it trips both oracles.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._lock = threading.Lock()
        self._cluster = cluster
        self._sanitizer = None

    def violations(self) -> Tuple[str, ...]:
        """Rendered sanitizer violations (empty when clean/uninstrumented)."""
        if self._sanitizer is None:
            return ()
        return tuple(
            "%s: %s" % (v.kind, v.detail)
            for v in self._sanitizer.violations()
        )

    def serve(self, request: ReadRequest) -> ResultFrame:
        """Answer one read: its routing and a payload per shard, or
        the error it raised (a malformed query's QueryError included).
        A stalled read (the test hook) sleeps each targeted shard's
        stall after matching, outside the lock."""
        plan = request.plan
        try:
            with self._lock:
                match, epoch = self._execute_locked(plan)
        except Exception as exc:
            return ResultFrame(
                request_id=request.request_id,
                error=encode_error(exc),
                violations=self.violations(),
            )
        if plan.stall_ms:
            time.sleep(
                sum(plan.stall_ms.get(s, 0.0) for s in match.shard_ids)
                / 1000.0
            )
        return ResultFrame(
            request_id=request.request_id,
            shard_ids=tuple(match.shard_ids),
            broadcast=match.broadcast,
            payloads=tuple(
                encode_result(rids, stats) for rids, stats in match.matches
            ),
            plan_ms=match.plan_ms,
            epoch=epoch,
            violations=self.violations(),
        )

    def _execute_locked(self, plan: PlanMessage) -> Tuple[ClusterMatch, Any]:
        """The read's plan-and-match step and the epoch it ran at."""
        epoch = self._cluster.read_epoch(plan.collection)
        if epoch != plan.epoch:
            raise ServiceError(
                "worker copy of %s is stale (have epoch %s, need %s)"
                % (plan.collection, epoch, plan.epoch)
            )
        match = self._cluster.match(
            plan.collection,
            plan.query,
            hint=plan.hint,
            max_geo_ranges=plan.max_geo_ranges,
        )
        return match, epoch


def _worker_main(conn, cluster: "ShardedCluster", sanitize: bool) -> None:
    """The worker process's event loop: recv reads, send replies."""
    host = _WorkerHost(cluster)
    if sanitize:
        # Registered by repro.sanitizer.instrument in the parent and
        # inherited through fork; sync() refused to spawn if it was
        # missing.
        assert worker_instrumenter is not None
        worker_instrumenter(host)
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if isinstance(frame, ShutdownFrame):
            break
        if isinstance(frame, ReadRequest):
            try:
                conn.send(host.serve(frame))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass
