"""The process executor backend: parity, deadlines, worker lifecycle.

Satellite of the process-parallel serving PR: the admission-control
and deadline-expiry guarantees QueryService makes must survive the
move from a thread pool to per-shard worker processes.  In particular
the PR-1 leak class is reconstructed in the new topology: a worker
that stalls mid-subquery must produce a clean ``QueryTimeoutError`` —
not a leaked read lock, a poisoned pool, or an orphaned worker.
"""

import os
import pickle

import pytest

from repro.errors import QueryTimeoutError, ServiceError
from repro.service import QueryService, ServiceConfig
from repro.service import executors
from repro.service.wire import WIRE_PROTOCOL

TARGETED = {"k": {"$gte": 1000, "$lt": 5000}}
BROADCAST = {"group": 3}
QUERIES = [
    TARGETED,
    BROADCAST,
    {},
    {"k": 4242},
    {"$or": [{"k": {"$lt": 50}}, {"group": {"$in": [1, 2]}}]},
]


def process_config(**overrides):
    defaults = dict(executor="process", default_timeout_ms=10_000.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def canonical_docs(documents):
    """Per-document canonical pickles.

    Whole-list pickles differ across backends for a reason that is not
    a parity break: the parent's seeded documents share interned
    string objects, so the pickler's memo folds them, while documents
    rebuilt from a wire snapshot share per-shard copies.  Encoding
    each document alone removes the memo from the comparison.
    """
    return [pickle.dumps(d, protocol=WIRE_PROTOCOL) for d in documents]


class TestBackendSelection:
    def test_environment_selects_the_backend_it_names(self, cluster_factory):
        # CI's "service suite on the process executor" step sets the
        # variable; this is what proves the suite ran on that backend.
        wanted = os.environ.get(executors.ENV_BACKEND)
        if not wanted:
            pytest.skip("%s is not set" % executors.ENV_BACKEND)
        with QueryService(cluster_factory(), ServiceConfig()) as service:
            assert service.executor_backend == wanted

    @pytest.mark.parametrize(
        "value, backend",
        [("", "thread"), (" Process ", "process"), ("thread", "thread")],
    )
    def test_auto_resolves_from_the_environment(
        self, monkeypatch, value, backend
    ):
        monkeypatch.setenv(executors.ENV_BACKEND, value)
        assert executors.resolve_backend("auto") == backend
        assert executors.resolve_backend("thread") == "thread"

    def test_unrecognised_backend_name_is_refused(self, monkeypatch):
        monkeypatch.setenv(executors.ENV_BACKEND, "proces")
        with pytest.raises(ServiceError, match="proces"):
            executors.resolve_backend("auto")


class TestBackendParity:
    def test_documents_and_stats_match_threaded_backend(
        self, cluster_factory
    ):
        threaded_cluster = cluster_factory()
        process_cluster = cluster_factory()
        with QueryService(
            threaded_cluster, ServiceConfig(executor="thread")
        ) as threaded, QueryService(
            process_cluster, process_config()
        ) as process:
            assert threaded.executor_backend == "thread"
            assert process.executor_backend == "process"
            for query in QUERIES:
                mine = threaded.find("t", query)
                theirs = process.find("t", query)
                assert canonical_docs(theirs.documents) == canonical_docs(
                    mine.documents
                )
                assert theirs.stats.as_dict() == mine.stats.as_dict()

    def test_parity_survives_writes_and_ddl(self, cluster_factory):
        threaded_cluster = cluster_factory()
        process_cluster = cluster_factory()
        with QueryService(
            threaded_cluster, ServiceConfig(executor="thread")
        ) as threaded, QueryService(
            process_cluster, process_config()
        ) as process:
            for service in (threaded, process):
                service.find("t", TARGETED)  # populate replicas
                service.insert_many(
                    "t",
                    [
                        {"_id": 10_000 + i, "k": 2_000 + i, "group": i}
                        for i in range(20)
                    ],
                )
                service.delete_many("t", {"group": 7})
                service.create_index("t", [("group", 1)], name="group_1")
            for query in QUERIES + [{"group": {"$gte": 8}}]:
                mine = threaded.find("t", query)
                theirs = process.find("t", query)
                assert canonical_docs(theirs.documents) == canonical_docs(
                    mine.documents
                )
                assert theirs.stats.as_dict() == mine.stats.as_dict()

    def test_count_documents_matches(self, cluster_factory):
        cluster = cluster_factory()
        expected = cluster.count_documents("t", TARGETED)
        with QueryService(cluster, process_config()) as service:
            assert service.count_documents("t", TARGETED) == expected


class TestReplicaSync:
    def test_writes_bump_epochs_and_resync_replicas(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})
            pool = service._worker_pool
            synced = {
                shard_id: pool.client_for(shard_id).synced_epoch(
                    shard_id, "t"
                )
                for shard_id in cluster.shards
            }
            assert all(epoch is not None for epoch in synced.values())
            service.insert_one("t", {"_id": 99_999, "k": 1, "group": 0})
            service.find("t", {})
            resynced = {
                shard_id: pool.client_for(shard_id).synced_epoch(
                    shard_id, "t"
                )
                for shard_id in cluster.shards
            }
            # The insert targeted one shard; that shard's replica must
            # have advanced, the others must not have re-shipped.
            advanced = [
                shard_id
                for shard_id in synced
                if resynced[shard_id] > synced[shard_id]
            ]
            assert len(advanced) == 1
            snapshot = service.metrics_snapshot().as_dict()
            assert snapshot["executor"]["replicaSyncs"] >= len(
                cluster.shards
            ) + 1

    def test_repeated_query_hits_worker_result_cache(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            results = [service.find("t", TARGETED) for _ in range(4)]
            first = canonical_docs(results[0].documents)
            for later in results[1:]:
                assert canonical_docs(later.documents) == first
                assert later.stats.as_dict() == results[0].stats.as_dict()
            executor = service.metrics_snapshot().as_dict()["executor"]
            # Query 1 misses and fills; the identical queries 2+ hit.
            assert executor["remoteCacheHits"] > 0
            assert executor["remoteSubqueries"] >= executor["remoteCacheHits"]

    def test_writes_invalidate_worker_result_cache(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            for _ in range(3):
                before = service.find("t", TARGETED)
            service.insert_one(
                "t", {"_id": 50_000, "k": 2500, "group": 1}
            )
            after = service.find("t", TARGETED)
            assert len(after.documents) == len(before.documents) + 1
            assert any(
                d["_id"] == 50_000 for d in after.documents
            )


class TestDeadlinesAndAdmission:
    """The PR-1 leak class, reconstructed in the process topology."""

    def test_stalled_worker_times_out_cleanly(self, cluster_factory):
        cluster = cluster_factory()
        shard_id = sorted(cluster.shards)[0]
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})  # spawn workers, sync replicas
            pool = service._worker_pool
            pool.debug_stall_ms[shard_id] = 1_000.0
            with pytest.raises(QueryTimeoutError):
                service.find("t", {}, timeout_ms=100)
            # The shard read lock must have been released on the
            # timeout path: a writer can take it promptly.
            lock = service._shard_locks[shard_id]
            assert lock.acquire_write(timeout=2.0)
            lock.release_write()
            # The worker was abandoned, not leaked: once the stall is
            # lifted the same pool serves the next query with the same
            # (still-alive) worker processes.
            pool.debug_stall_ms.clear()
            procs = [client._proc for client in pool.clients()]
            result = service.find("t", {"k": {"$gte": 0}}, timeout_ms=5_000)
            assert result.documents
            assert [c._proc for c in pool.clients()] == procs
            assert all(proc.is_alive() for proc in procs)

    def test_abandoned_reply_does_not_corrupt_next_result(
        self, cluster_factory
    ):
        # The stalled subquery's late reply arrives *after* its request
        # was discarded; it must be dropped by request id, never
        # delivered to a later request.
        cluster = cluster_factory()
        shard_id = sorted(cluster.shards)[0]
        with QueryService(cluster, process_config()) as service:
            expected = service.find("t", TARGETED)
            pool = service._worker_pool
            pool.debug_stall_ms[shard_id] = 300.0
            with pytest.raises(QueryTimeoutError):
                service.find("t", {}, timeout_ms=50)
            pool.debug_stall_ms.clear()
            again = service.find("t", TARGETED)
            assert canonical_docs(again.documents) == canonical_docs(
                expected.documents
            )
            assert again.stats.as_dict() == expected.stats.as_dict()

    def test_deadline_expired_before_dispatch(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})
            with pytest.raises(QueryTimeoutError):
                service.find("t", TARGETED, timeout_ms=0.0)
            # Pool still serves.
            assert service.find("t", TARGETED).documents


class TestWorkerLifecycle:
    def test_dead_worker_is_respawned_with_a_fresh_replica(
        self, cluster_factory
    ):
        cluster = cluster_factory()
        shard_id = sorted(cluster.shards)[0]
        with QueryService(cluster, process_config()) as service:
            expected = service.find("t", TARGETED)
            client = service._worker_pool.client_for(shard_id)
            old_proc = client._proc
            old_proc.terminate()
            old_proc.join(timeout=5.0)
            assert not old_proc.is_alive()
            # The next query may observe the corpse mid-flight (the
            # reader thread fails its pendings with ServiceError) or
            # already find it dead and respawn transparently; either
            # way the one *after* must be served by a fresh worker
            # with a freshly synced replica.
            try:
                first = service.find("t", TARGETED)
            except ServiceError:
                first = service.find("t", TARGETED)
            assert canonical_docs(first.documents) == canonical_docs(
                expected.documents
            )
            assert client._proc is not old_proc
            assert client._proc.is_alive()

    def test_shutdown_terminates_workers(self, cluster_factory):
        cluster = cluster_factory()
        service = QueryService(cluster, process_config())
        service.find("t", {})
        procs = [c._proc for c in service._worker_pool.clients()]
        assert procs and all(p.is_alive() for p in procs)
        service.shutdown()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        with pytest.raises(ServiceError):
            service.find("t", {})

    def test_sanitize_without_instrumenter_is_refused(
        self, cluster_factory, monkeypatch
    ):
        # REPRO_WORKER_SANITIZE without an armed hook must refuse
        # loudly before spawning, not silently skip instrumentation
        # (layering forbids executors importing the sanitizer, so the
        # hook is registered by ``import repro.sanitizer``).
        cluster = cluster_factory()
        monkeypatch.setenv(executors.ENV_WORKER_SANITIZE, "1")
        monkeypatch.setattr(executors, "worker_instrumenter", None)
        with QueryService(cluster, process_config()) as service:
            with pytest.raises(ServiceError, match="instrumenter"):
                service.find("t", {})

    def test_worker_pool_clamps_to_shard_count(self, cluster_factory):
        cluster = cluster_factory()
        config = process_config(executor_workers=64)
        with QueryService(cluster, config) as service:
            assert len(service._worker_pool.clients()) <= len(
                cluster.shards
            )
