"""The concurrent query-serving frontend (an in-process "mongos").

:class:`ShardedCluster` is a single-caller library: one thread calls
``find`` and per-shard subqueries run one after another.  A real
mongos is a *server* — many clients in flight at once, per-shard
subqueries dispatched concurrently, bounded queues in front of the
executor.  :class:`QueryService` adds exactly that layer:

* **Scatter-gather** — per-shard subqueries run on an executor
  backend (:mod:`repro.service.executors`): in the caller's thread by
  default, reads taking turns in arrival order through one
  :class:`~repro.service.locks.FifoTurn`, or on per-shard worker
  *processes* when ``ServiceConfig.executor`` selects the ``process``
  backend; merged documents and
  :class:`~repro.cluster.metrics.ClusterQueryStats` are identical to
  the sequential path.
* **Reader-writer locking** — per-shard shared/exclusive locks let any
  number of reads proceed concurrently while inserts, updates, and
  deletes (whose chunk splits and migrations can touch any shard) take
  exclusive access.  Read targeting is validated against the cluster's
  ``metadata_version`` after lock acquisition, so a migration sliding
  between targeting and execution cannot strand a query on stale
  routing.
* **One planning path** — a read binds its parameterized shape
  (:mod:`repro.docstore.paramplan`) or, when the structure is not
  parameterizable, is analyzed; nothing is stored between queries, so
  nothing needs invalidating (DESIGN.md §8).
* **Admission control** — a bounded wait queue and a concurrency
  limit; requests beyond both fail fast with
  :class:`~repro.errors.ServiceOverloadedError`, and a per-query
  deadline turns into :class:`~repro.errors.QueryTimeoutError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cache import StampedLRUCache
from repro.cluster.cluster import ShardedCluster
from repro.docstore.paramplan import plan_read
from repro.docstore.stats import CollectionStats, analyze_collection
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
from repro.service.locks import FifoTurn, ReadWriteLock
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
        cache_outcome: Optional[str] = None,
    ) -> None:
        self.documents = documents
        self.stats = stats
        self.latency_ms = latency_ms
        self.queue_wait_ms = queue_wait_ms
        #: The caller's explicit ``hint=``; the service never adds one.
        self.hint_used = hint_used
        #: How the query was planned: ``"shape"`` (values bound into
        #: its parameterized shape), ``"miss"`` (analyzed: the
        #: structure is not parameterizable, or the bind refused these
        #: values); None for hinted reads.
        self.cache_outcome = cache_outcome

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
        self._shard_locks: Dict[str, ReadWriteLock] = {
            shard_id: ReadWriteLock() for shard_id in cluster.shards
        }
        #: The thread backend's reads run one at a time, in arrival
        #: order: under the GIL, taking turns is what hands the
        #: interpreter from one client to the next.
        self._turn = FifoTurn()
        self._closed = False
        #: ANALYZE output per collection, stamped with the
        #: ``metadata_version`` captured before the scan; reads pass
        #: the live version, so a split, migration, zone change or DDL
        #: retires an entry and nothing else does.
        self.stats_catalog = StampedLRUCache()

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
        """A metrics snapshot bundling every read-path cache's counters."""
        caches = {
            "targeting": self.cluster.targeting_cache.stats(),
            # No such memo; the all-zero key goes with ROADMAP item 1(d).
            "rangeDecomposition": dict.fromkeys(
                ("entries", "hits", "misses", "stale", "evictions"), 0
            ),
            "statsCatalog": self.stats_catalog.stats(),
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
        while True:
            remaining = deadline.remaining()  # raises when expired
            timeout = 0.05 if remaining is None else min(remaining, 0.05)
            if self._slots.acquire(timeout=timeout):
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

        Admission, queueing, the read's turn (thread backend), per-shard
        read locks, plan binding, scatter-gather, and metrics wrap the same
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
        shape, matcher, cache_outcome = plan_read(collection, query, hint)
        spec = SubquerySpec(
            collection=collection,
            query=query,
            hint=hint,
            max_geo_ranges=max_geo_ranges,
            shape=shape,
        )
        # The turn is taken before any shard read lock, so no read
        # ever waits for it under one.
        threaded = self._threaded is not None
        if threaded:
            waited = time.perf_counter()
            if not self._turn.acquire(timeout=deadline.remaining()):
                raise QueryTimeoutError("timed out waiting for its turn")
            queue_wait_ms += (time.perf_counter() - waited) * 1000.0
        try:
            locks, targeting = self._read_lock_targeted_shards(
                collection, query, deadline, shape=shape
            )
            try:
                # The two branches differ only in which executor builds
                # the mapper; they are spelled out (rather than
                # dispatched via a shared variable) so the static
                # lockgraph resolves each closure and models its lock
                # footprint under the held read locks.
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
                for lock in locks:
                    lock.release_read()
        finally:
            if threaded:
                self._turn.release()
        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_query(
            latency_ms,
            queue_wait_ms,
            stage_times=result.stats.stage_times_ms,
            cache_outcome=cache_outcome,
        )
        return ServiceFindResult(
            documents=result.documents,
            stats=result.stats,
            latency_ms=latency_ms,
            queue_wait_ms=queue_wait_ms,
            hint_used=hint,
            cache_outcome=cache_outcome,
        )

    def _read_lock_targeted_shards(
        self,
        collection: str,
        query: Mapping[str, Any],
        deadline: Deadline,
        shape=None,
    ) -> Tuple[List[ReadWriteLock], Any]:
        """Shared-lock the shards a query targets, consistently.

        Targeting runs before any lock is held, so a concurrent write
        could split or migrate chunks in between.  The loop re-checks
        the cluster's ``metadata_version`` once the locks are held and
        retries when routing moved underneath it.  Returns the held
        locks *and* the validated targeting, which the caller passes
        into :meth:`ShardedCluster.find` — so the targeting memo's lock
        is only ever taken here, before any shard lock is held.
        """
        for _attempt in range(16):
            version = self.cluster.metadata_version
            targeting = self.cluster.targeting_for(
                collection, query, shape=shape
            )
            acquired: List[ReadWriteLock] = []
            ok = True
            try:
                for shard_id in sorted(targeting.shard_ids):
                    lock = self._shard_locks[shard_id]
                    if not lock.acquire_read(timeout=deadline.remaining()):
                        ok = False
                        break
                    acquired.append(lock)
            except BaseException:
                # deadline.remaining() raises QueryTimeoutError mid-loop;
                # locks already acquired must not leak past this frame.
                for lock in acquired:
                    lock.release_read()
                raise
            if ok and self.cluster.metadata_version == version:
                return acquired, targeting
            for lock in acquired:
                lock.release_read()
            if not ok:
                raise QueryTimeoutError(
                    "timed out waiting for shard read locks"
                )
        raise ServiceError("routing metadata kept changing during targeting")

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
        """Run a cluster mutation holding every shard's write lock.

        Writes take exclusive access to the whole cluster: an insert
        can split a chunk and migrate it to *any* shard, and updates
        and deletes rewrite chunk statistics, so per-shard write locks
        are acquired on all shards (in sorted order, making the
        acquisition deadlock-free against concurrent multi-shard
        readers, which sort identically).
        """
        self._admit()
        try:
            acquired: List[Tuple[str, ReadWriteLock]] = []
            for shard_id in sorted(self._shard_locks):
                lock = self._shard_locks[shard_id]
                lock.acquire_write()
                acquired.append((shard_id, lock))
            try:
                out = fn()
            finally:
                for _shard_id, lock in reversed(acquired):
                    lock.release_write()
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

    # -- statistics (ANALYZE) --------------------------------------------------

    def analyze_collection(
        self,
        collection: str,
        *,
        histogram_buckets: int = 32,
        sketch_order: int = 10,
    ) -> CollectionStats:
        """Rebuild the statistics catalog for one collection.

        The scan runs under the exclusive section so it sees a frozen
        chunk map; the version stamp is still captured before any data
        is read, so the entry self-identifies as stale if built
        against a version that moved.  The catalog is filled after the
        shard locks are released: its lock never nests under them.
        """
        stats = self._run_exclusive(
            lambda: analyze_collection(  # the module's ANALYZE pass
                self.cluster,
                collection,
                histogram_buckets=histogram_buckets,
                sketch_order=sketch_order,
            )
        )
        self.stats_catalog.put(collection, stats, stamp=stats.metadata_version)
        return stats

    def collection_stats(
        self, collection: str
    ) -> Optional[CollectionStats]:
        """The catalog entry for a collection, or None when absent
        or built under an older ``metadata_version``."""
        return self.stats_catalog.get(
            collection, stamp=self.cluster.metadata_version
        )
