"""The concurrent query-serving frontend (an in-process "mongos").

:class:`ShardedCluster` is a single-caller library: one thread calls
``find`` and per-shard subqueries run one after another.  A real
mongos is a *server* — many clients in flight at once, per-shard
subqueries dispatched concurrently, bounded queues in front of the
executor.  :class:`QueryService` adds exactly that layer:

* **Scatter-gather** — per-shard subqueries run on an executor
  backend (:mod:`repro.service.executors`): in the caller's thread by
  default, or on per-shard worker *processes* when
  ``ServiceConfig.executor`` selects the ``process`` backend; merged
  documents and :class:`~repro.cluster.metrics.ClusterQueryStats` are
  identical to the sequential path.
* **One reader-writer lock** — one FIFO
  :class:`~repro.service.locks.ReadWriteLock` per service.  Inserts,
  updates, deletes and DDL (whose chunk splits and migrations can touch
  any shard) hold it exclusively; a read holds it from targeting
  through the merge, so routing cannot move under a read.  Process
  backend reads share it and overlap; thread backend reads take it
  exclusively, one at a time in arrival order.
* **One planning path** — a read parses its query once
  (:func:`~repro.docstore.matcher.parse_query`) into the planner's
  shape and the compiled matcher; nothing is stored between queries,
  so nothing needs invalidating (DESIGN.md §8).
* **Admission control** — a bounded wait queue and a concurrency
  limit; requests beyond both fail fast with
  :class:`~repro.errors.ServiceOverloadedError`, and a per-query
  deadline turns into :class:`~repro.errors.QueryTimeoutError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import ShardedCluster
from repro.docstore.matcher import parse_query
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.executors import (
    Deadline,
    ShardWorkerPool,
    SubquerySpec,
    ThreadedExecutor,
    resolve_backend,
)
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics

__all__ = ["ServiceConfig", "ServiceFindResult", "QueryService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for the serving frontend."""

    #: The default for ``max_concurrent_queries`` and
    #: ``executor_workers``.
    max_workers: int = 8
    #: Queries executing at once; defaults to ``max_workers``.
    max_concurrent_queries: Optional[int] = None
    #: Bounded wait queue beyond the concurrency limit; requests that
    #: find it full are rejected with ServiceOverloadedError.
    max_queue_depth: int = 16
    #: Default per-query deadline; None means no deadline.
    default_timeout_ms: Optional[float] = None
    #: Execution backend for the shard fan-out: ``"thread"`` (in the
    #: caller's thread), ``"process"`` (the :class:`ShardWorkerPool`
    #: of per-shard worker processes), or ``"auto"`` (consult the
    #: ``REPRO_EXECUTOR_BACKEND`` environment variable, defaulting to
    #: ``"thread"``).
    executor: str = "auto"
    #: Worker *processes* for the process backend (shards are assigned
    #: round-robin); defaults to ``max_workers``.
    executor_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ServiceError("max_workers must be positive")
        if self.max_queue_depth < 0:
            raise ServiceError("max_queue_depth must be >= 0")
        limit = self.effective_concurrency
        if limit < 1:
            raise ServiceError("max_concurrent_queries must be positive")
        if self.executor not in ("auto", "thread", "process"):
            raise ServiceError(
                "executor must be 'auto', 'thread', or 'process'"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ServiceError("executor_workers must be positive")

    @property
    def effective_concurrency(self) -> int:
        """The resolved concurrent-query limit."""
        if self.max_concurrent_queries is not None:
            return self.max_concurrent_queries
        return self.max_workers


class ServiceFindResult:
    """A merged query result plus serving-side measurements."""

    def __init__(
        self,
        documents: List[dict],
        stats,
        latency_ms: float,
        queue_wait_ms: float,
        hint_used: Optional[str],
    ) -> None:
        self.documents = documents
        self.stats = stats
        self.latency_ms = latency_ms
        self.queue_wait_ms = queue_wait_ms
        #: The caller's explicit ``hint=``; the service never adds one.
        self.hint_used = hint_used
        #: Vestigial, always None: every read is parsed the same way.
        #: The benchmark harness reads it until ROADMAP item 1(d).
        self.cache_outcome: Optional[str] = None

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


class QueryService:
    """A concurrent query server in front of a :class:`ShardedCluster`.

    Use as a context manager (or call :meth:`shutdown`) to release the
    execution backend::

        with QueryService(cluster) as service:
            result = service.find("traces", query)
    """

    def __init__(
        self,
        cluster: ShardedCluster,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        # The shard fan-out backend.  Exactly one of the typed
        # attributes is populated; call sites branch on it explicitly
        # so the static lockgraph resolves each mapper unambiguously.
        self.executor_backend = resolve_backend(self.config.executor)
        self._threaded: Optional[ThreadedExecutor] = None
        self._worker_pool: Optional[ShardWorkerPool] = None
        if self.executor_backend == "process":
            self._worker_pool = ShardWorkerPool(
                cluster, self.config, metrics=self.metrics
            )
        else:
            self._threaded = ThreadedExecutor()
        limit = self.config.effective_concurrency
        #: Total in-flight requests (executing + queued); non-blocking.
        self._admission = threading.Semaphore(
            limit + self.config.max_queue_depth
        )
        #: Requests actually executing; waiting here is "queue wait".
        self._slots = threading.Semaphore(limit)
        #: Writes hold it exclusively; reads hold it from targeting
        #: through the merge — shared on the process backend, whose
        #: reads overlap, exclusive on the thread backend, where under
        #: the GIL taking turns in arrival order is what hands the
        #: interpreter from one client to the next.
        self._lock = ReadWriteLock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting work and release the execution backend."""
        self._closed = True
        if self._worker_pool is not None:
            self._worker_pool.shutdown()

    def __enter__(self) -> "QueryService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: shut the backend down."""
        self.shutdown()

    # -- metrics ---------------------------------------------------------------

    def metrics_snapshot(self):
        """A metrics snapshot; ``caches`` holds two all-zero entries.

        The read path memoizes nothing.  The ``targeting`` and
        ``rangeDecomposition`` keys stay, every counter 0, because the
        perf harness reads them; they go with ROADMAP item 1(d).
        """
        counters = ("entries", "hits", "misses", "stale", "evictions")
        caches = {
            name: dict.fromkeys(counters, 0)
            for name in ("targeting", "rangeDecomposition")
        }
        return self.metrics.snapshot(caches=caches)

    # -- admission -------------------------------------------------------------

    def _admit(self) -> None:
        if self._closed:
            raise ServiceError("service is shut down")
        if not self._admission.acquire(blocking=False):
            self.metrics.record_rejection()
            raise ServiceOverloadedError(
                "request queue full (%d executing + %d queued)"
                % (
                    self.config.effective_concurrency,
                    self.config.max_queue_depth,
                )
            )

    def _acquire_slot(self, deadline: Deadline) -> float:
        """Wait for an execution slot; returns queue wait in ms."""
        started = time.perf_counter()
        if not self._slots.acquire(timeout=deadline.remaining()):
            raise QueryTimeoutError("timed out waiting for an execution slot")
        return (time.perf_counter() - started) * 1000.0

    # -- read path -------------------------------------------------------------

    def find(
        self,
        collection: str,
        query: Mapping[str, Any],
        hint: Optional[str] = None,
        max_geo_ranges: Optional[int] = None,
        timeout_ms: Optional[float] = None,
    ) -> ServiceFindResult:
        """Serve one read query through the concurrent frontend.

        Admission, queueing, the service lock, query parsing, targeting,
        scatter-gather, and metrics wrap the same
        execution :meth:`ShardedCluster.find` performs; documents and
        cluster statistics are identical to the library path.
        """
        started = time.perf_counter()
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        deadline = Deadline(timeout_ms)
        self._admit()
        try:
            try:
                queue_wait_ms = self._acquire_slot(deadline)
                try:
                    return self._execute_read(
                        collection,
                        query,
                        hint,
                        max_geo_ranges,
                        deadline,
                        started,
                        queue_wait_ms,
                    )
                finally:
                    self._slots.release()
            except QueryTimeoutError:
                self.metrics.record_timeout()
                raise
        finally:
            self._admission.release()

    def _execute_read(
        self,
        collection: str,
        query: Mapping[str, Any],
        hint: Optional[str],
        max_geo_ranges: Optional[int],
        deadline: Deadline,
        started: float,
        queue_wait_ms: float,
    ) -> ServiceFindResult:
        shape, matcher = parse_query(query)
        spec = SubquerySpec(
            collection=collection,
            query=query,
            hint=hint,
            max_geo_ranges=max_geo_ranges,
        )
        waited = time.perf_counter()
        threaded = self._threaded is not None
        if threaded:
            acquired = self._lock.acquire_write(timeout=deadline.remaining())
        else:
            acquired = self._lock.acquire_read(timeout=deadline.remaining())
        if not acquired:
            raise QueryTimeoutError("timed out waiting for the service lock")
        queue_wait_ms += (time.perf_counter() - waited) * 1000.0
        try:
            # Routing cannot move while the lock is held: every chunk
            # split, migration and DDL runs under it exclusively.
            targeting = self.cluster.targeting_for(
                collection, query, shape=shape
            )
            # The two branches differ only in which executor builds the
            # mapper; they are spelled out (rather than dispatched via
            # a shared variable) so the static lockgraph resolves each
            # closure and models its lock footprint under the held lock.
            if self._worker_pool is not None:
                result = self.cluster.find(
                    collection,
                    query,
                    hint=hint,
                    max_geo_ranges=max_geo_ranges,
                    shard_mapper=self._worker_pool.shard_mapper(
                        spec, deadline
                    ),
                    shape=shape,
                    matcher=matcher,
                    targeting=targeting,
                )
            else:
                assert self._threaded is not None
                result = self.cluster.find(
                    collection,
                    query,
                    hint=hint,
                    max_geo_ranges=max_geo_ranges,
                    shard_mapper=self._threaded.shard_mapper(
                        spec, deadline
                    ),
                    shape=shape,
                    matcher=matcher,
                    targeting=targeting,
                )
        finally:
            if threaded:
                self._lock.release_write()
            else:
                self._lock.release_read()
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_query(
            latency_ms,
            queue_wait_ms,
            stage_times=result.stats.stage_times_ms,
        )
        return ServiceFindResult(
            documents=result.documents,
            stats=result.stats,
            latency_ms=latency_ms,
            queue_wait_ms=queue_wait_ms,
            hint_used=hint,
        )

    # -- convenience reads -----------------------------------------------------

    def count_documents(
        self,
        collection: str,
        query: Mapping[str, Any],
        timeout_ms: Optional[float] = None,
    ) -> int:
        """Number of matching documents, served through the frontend."""
        return len(self.find(collection, query, timeout_ms=timeout_ms))

    # -- write path ------------------------------------------------------------

    def _run_exclusive(self, fn):
        """Run a cluster mutation holding the service lock exclusively.

        Writes take exclusive access to the whole cluster: an insert
        can split a chunk and migrate it to *any* shard, and updates
        and deletes rewrite chunk statistics.
        """
        self._admit()
        try:
            self._lock.acquire_write()
            try:
                out = fn()
            finally:
                self._lock.release_write()
            self.metrics.record_write()
            return out
        finally:
            self._admission.release()

    def insert_one(
        self, collection: str, document: Mapping[str, Any]
    ) -> None:
        """Insert one document under exclusive access."""
        self.insert_many(collection, [document])

    def insert_many(
        self, collection: str, documents: Iterable[Mapping[str, Any]]
    ) -> int:
        """Insert documents under exclusive access; returns the count."""
        docs = list(documents)
        return self._run_exclusive(
            lambda: self.cluster.insert_many(collection, docs)
        )

    def update_many(
        self,
        collection: str,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
    ) -> int:
        """Update matching documents under exclusive access."""
        return self._run_exclusive(
            lambda: self.cluster.update_many(collection, query, update)
        )

    def delete_many(
        self, collection: str, query: Mapping[str, Any]
    ) -> int:
        """Delete matching documents under exclusive access."""
        return self._run_exclusive(
            lambda: self.cluster.delete_many(collection, query)
        )

    # -- DDL -------------------------------------------------------------------

    def create_index(
        self,
        collection: str,
        spec: Sequence[Tuple[str, Any]] | Mapping[str, Any],
        name: str = "",
        geohash_bits: int = 26,
    ) -> None:
        """Create an index on every shard under exclusive access."""
        self._run_exclusive(
            lambda: self.cluster.create_index(
                collection, spec, name=name, geohash_bits=geohash_bits
            )
        )

    def drop_index(self, collection: str, name: str) -> None:
        """Drop an index from every shard under exclusive access."""
        self._run_exclusive(
            lambda: self.cluster.drop_index(collection, name)
        )
