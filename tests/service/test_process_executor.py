"""The process executor backend: parity, deadlines, worker lifecycle.

Satellite of the process-parallel serving PR: the admission-control
and deadline-expiry guarantees QueryService makes must survive the
move from a thread pool to per-shard worker processes.  In particular
the PR-1 leak class is reconstructed in the new topology: a worker
that stalls mid-subquery must produce a clean ``QueryTimeoutError`` —
not a leaked read lock, a poisoned pool, or an orphaned worker.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.errors import QueryTimeoutError, ServiceError
from repro.service import QueryService, ServiceConfig
from repro.service import executors
from repro.service.wire import WIRE_PROTOCOL, decode_result, encode_result

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

    Both backends copy results from the parent's own store, but parity
    is still defined per document: a whole-list pickle also encodes
    which objects the documents share (the pickler's memo), which is
    not part of a result.
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
                service.find("t", TARGETED)  # fork the workers
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


def _insert_one(service):
    service.insert_one("t", {"_id": 99_999, "k": 1, "group": 0})


def _delete_many(service):
    assert service.delete_many("t", {"k": {"$gte": 2_000, "$lt": 2_300}})


def _update_many(service):
    assert service.update_many(
        "t", {"k": {"$lt": 700}}, {"$inc": {"counter": 1}}
    )


def _index_ddl(service):
    service.create_index("t", [("group", 1)], name="group_1")
    service.drop_index("t", "group_1")


def _migration(service):
    # One narrow key range outgrows its 4 KiB chunk: the insert splits
    # it and relieves the donor shard by moving the new chunk away.
    service.insert_many(
        "t",
        [
            {"_id": 20_000 + i, "k": 9_990 + i % 5, "group": i, "pad": "y" * 64}
            for i in range(80)
        ],
    )


WRITES = {
    "insert_one": _insert_one,
    "delete_many": _delete_many,
    "update_many": _update_many,
    "index_ddl": _index_ddl,
    "migration": _migration,
}


class TestWorkerForks:
    """A worker is a fork of the parent at the epoch it serves.

    After a write, the next read forks afresh exactly the workers that
    host a shard the write changed, and answers as the thread backend
    does.
    """

    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_write_reforks(self, cluster_factory, kind):
        threaded_cluster = cluster_factory()
        process_cluster = cluster_factory()
        with QueryService(
            threaded_cluster, ServiceConfig(executor="thread")
        ) as threaded, QueryService(
            process_cluster, process_config(executor_workers=2)
        ) as process:
            pool = process._worker_pool
            process.find("t", {})
            pids = {c: c._proc.pid for c in pool.clients()}
            epochs = {
                shard_id: shard.collection("t").mutation_count
                for shard_id, shard in process_cluster.shards.items()
            }
            forks = process.metrics_snapshot().executor["replicaSyncs"]
            assert forks == len(pool.clients())
            version = process_cluster.metadata_version
            for service in (threaded, process):
                WRITES[kind](service)
            changed = {
                shard_id
                for shard_id, shard in process_cluster.shards.items()
                if shard.collection("t").mutation_count != epochs[shard_id]
            }
            assert changed
            if kind == "migration":
                assert process_cluster.metadata_version != version
                assert len(changed) >= 2  # the donor and the recipient
            for query in QUERIES:
                mine = threaded.find("t", query)
                theirs = process.find("t", query)
                assert canonical_docs(theirs.documents) == canonical_docs(
                    mine.documents
                )
                assert theirs.stats.as_dict() == mine.stats.as_dict()
            reforked = {c for c in pool.clients() if c._proc.pid != pids[c]}
            assert reforked == {pool._clients[s] for s in changed}
            assert (
                process.metrics_snapshot().executor["replicaSyncs"]
                == forks + len(reforked)
            )

    def test_retire_answers_what_was_sent(self, cluster_factory):
        # A request in flight on a worker that the next enqueue retires
        # is answered by the old worker, at the epoch it was sent at.
        # Under the service this is a read of an unchanged shard, sent
        # just before another read finds a shard of the same worker
        # changed by a write that committed before either took a lock.
        cluster = cluster_factory()
        with QueryService(
            cluster, process_config(executor_workers=1)
        ) as service:
            service.find("t", {})
            first_id, second_id = sorted(cluster.shards)[:2]
            client = service._worker_pool._clients[first_id]
            assert service._worker_pool._clients[second_id] is client
            spec = executors.SubquerySpec(
                collection="t", query={}, hint=None, max_geo_ranges=None
            )
            first = cluster.shards[first_id].collection("t")
            second = cluster.shards[second_id].collection("t")
            sent = client.enqueue(first_id, first, spec, 300.0)
            client.flush()
            old = client._proc
            second.update_many({}, {"$inc": {"counter": 1}})
            queued = client.enqueue(second_id, second, spec, 0.0)
            client.flush()
            assert client._proc is not old
            deadline = executors.Deadline(10_000.0)
            assert sent.result(deadline)[0] == first.find_rids({})[0]
            assert queued.result(deadline)[0] == second.find_rids({})[0]

    def test_retired_workers_are_reaped(self, cluster_factory):
        cluster = cluster_factory()
        others = set(multiprocessing.active_children())
        with QueryService(
            cluster, process_config(executor_workers=2)
        ) as service:
            workers = len(service._worker_pool.clients())
            for round_ in range(20):
                service.insert_one(
                    "t", {"_id": 50_000 + round_, "k": round_ * 499}
                )
                assert service.find("t", {"_id": 50_000 + round_}).documents
            # Each retired worker exits once it has read its shutdown
            # frame, and its reader thread reaps it.
            deadline = time.monotonic() + 10.0
            while True:
                mine = set(multiprocessing.active_children()) - others
                if len(mine) <= workers:
                    break
                assert time.monotonic() < deadline, mine
                time.sleep(0.05)
            assert service.metrics_snapshot().executor["replicaSyncs"] > 20


class TestDeadlinesAndAdmission:
    """The PR-1 leak class, reconstructed in the process topology."""

    def test_stalled_worker_times_out_cleanly(self, cluster_factory):
        cluster = cluster_factory()
        shard_id = sorted(cluster.shards)[0]
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})  # fork the workers
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

    def test_deadline_expiring_mid_enqueue_abandons_what_was_queued(
        self, cluster_factory
    ):
        # The deadline expires between two enqueues: the request queued
        # first must leave both the pending table and the outbox, or the
        # next query's flush would run it on the worker for nobody.
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            expected = service.find("t", {})
            pool = service._worker_pool
            shard_ids = sorted(cluster.shards)
            client = pool._clients[shard_ids[0]]
            before = set(client._pending)

            class SecondCallExpires(executors.Deadline):
                calls = 0

                def remaining(self):
                    self.calls += 1
                    if self.calls == 2:
                        raise QueryTimeoutError("query exceeded its deadline")
                    return None

            spec = executors.SubquerySpec(
                collection="t", query={}, hint=None, max_geo_ranges=None
            )
            mapper = pool.shard_mapper(spec, SecondCallExpires(None))
            with pytest.raises(QueryTimeoutError):
                mapper(None, shard_ids)
            assert set(client._pending) <= before
            assert client._outbox == []
            remote = service.metrics_snapshot().executor["remoteSubqueries"]
            again = service.find("t", {})
            assert canonical_docs(again.documents) == canonical_docs(
                expected.documents
            )
            assert again.stats.as_dict() == expected.stats.as_dict()
            assert (
                service.metrics_snapshot().executor["remoteSubqueries"]
                == remote + len(shard_ids)
            )

    def test_deadline_expired_before_dispatch(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})
            with pytest.raises(QueryTimeoutError):
                service.find("t", TARGETED, timeout_ms=0.0)
            # Pool still serves.
            assert service.find("t", TARGETED).documents


class TestReplyTripwires:
    """A reply the parent cannot trust fails the query loudly.

    Workers are forked after the patch, so they run the forged
    ``_execute_locked``.
    """

    def forge(self, monkeypatch, forged):
        original = executors._WorkerHost._execute_locked

        def execute_locked(host, shard_id, plan, bound):
            payload, epoch = original(host, shard_id, plan, bound)
            return forged(payload, epoch)

        monkeypatch.setattr(
            executors._WorkerHost, "_execute_locked", execute_locked
        )

    def test_reply_at_another_epoch_is_refused(
        self, cluster_factory, monkeypatch
    ):
        self.forge(monkeypatch, lambda payload, epoch: (payload, epoch + 1))
        with QueryService(cluster_factory(), process_config()) as service:
            with pytest.raises(ServiceError, match="epoch"):
                service.find("t", TARGETED)

    def test_reply_naming_an_unknown_rid_is_refused(
        self, cluster_factory, monkeypatch
    ):
        def forged(payload, epoch):
            _rids, stats = decode_result(payload)
            return encode_result([10**9], stats), epoch

        self.forge(monkeypatch, forged)
        with QueryService(cluster_factory(), process_config()) as service:
            with pytest.raises(ServiceError, match="record id 1000000000"):
                service.find("t", TARGETED)


class TestWorkerLifecycle:
    def test_dead_worker_is_respawned_with_a_fresh_replica(
        self, cluster_factory
    ):
        cluster = cluster_factory()
        shard_id = sorted(cluster.shards)[0]
        with QueryService(cluster, process_config()) as service:
            expected = service.find("t", TARGETED)
            client = service._worker_pool._clients[shard_id]
            old_proc = client._proc
            old_proc.terminate()
            old_proc.join(timeout=5.0)
            assert not old_proc.is_alive()
            # The next query may observe the corpse mid-flight (the
            # reader thread fails its pendings with ServiceError) or
            # already find it dead and respawn transparently; either
            # way the one *after* must be served by a freshly forked
            # worker.
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
