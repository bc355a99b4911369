"""The process executor backend: parity, deadlines, worker lifecycle.

The admission-control and deadline-expiry guarantees QueryService
makes must survive the move from the caller's thread to worker
processes that each serve whole reads.  In particular the PR-1 leak
class is reconstructed in this topology: a worker that stalls
mid-read must produce a clean ``QueryTimeoutError`` — not a leaked
read lock, a poisoned pool, or an orphaned worker.  A worker routes
each read on its own forked chunk map, so a routing change between two
reads must reach it too.
"""

import multiprocessing
import os
import pickle
import time
from multiprocessing.connection import wait

import pytest

from repro.cluster.cluster import ClusterMatch
from repro.cluster.zones import Zone
from repro.docstore.matcher import parse_query
from repro.errors import QueryTimeoutError, ServiceError
from repro.reference import reference_target_chunks
from repro.service import QueryService, ServiceConfig
from repro.service import executors
from repro.service.wire import WIRE_PROTOCOL, PlanMessage

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

    After a write, the next read forks every worker afresh at once (a
    worker serves every shard, and the write moved the read epoch), no
    later read forks again, and every read answers as the thread
    backend does.
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
            assert reforked == set(pool.clients())
            assert (
                process.metrics_snapshot().executor["replicaSyncs"]
                == forks + len(reforked)
            )

    def test_retire_answers_what_was_sent(self, cluster_factory):
        # A read in flight on a worker that the next read's fork retires
        # is answered by the old worker, at the epoch it was sent at.
        # Under the service this is a read that was sent just before
        # another read found the epoch moved by a write that committed
        # before either took a lock.
        cluster = cluster_factory()
        with QueryService(
            cluster, process_config(executor_workers=1)
        ) as service:
            service.find("t", {})
            first_id, second_id = sorted(cluster.shards)[:2]
            (client,) = service._worker_pool.clients()
            before = cluster.match("t", {})
            sent = client.submit(
                PlanMessage(
                    collection="t",
                    query={},
                    hint=None,
                    max_geo_ranges=None,
                    fast_path=True,
                    shape_key=None,
                    exact_key=None,
                    epoch=cluster.read_epoch("t"),
                    stall_ms={first_id: 300.0},
                )
            )
            old = client._proc
            cluster.shards[second_id].collection("t").update_many(
                {}, {"$inc": {"counter": 1}}
            )
            assert client.sync("t", cluster.read_epoch("t"))
            assert client._proc is not old
            match = sent.result(executors.Deadline(10_000.0))
            assert match.shard_ids == before.shard_ids
            assert [rids for rids, _stats in match.matches] == [
                rids for rids, _stats in before.matches
            ]
            after = service.find("t", {})
            assert canonical_docs(after.documents) == canonical_docs(
                cluster.find("t", {}).documents
            )

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
            # The read's hold of the service lock must have been
            # released on the timeout path: a writer can take it
            # promptly.
            assert service._lock.acquire_write(timeout=2.0)
            service._lock.release_write()
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
        # The deadline expires after the read has forked the workers
        # behind its epoch and before it is sent: nothing may be left
        # pending or shipped, or a worker would run it for nobody.
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            service.find("t", {})  # fork the workers
            pool = service._worker_pool
            # A write: the read below finds every worker behind.
            service.insert_one("t", {"_id": 99_999, "k": 1, "group": 0})
            expected = cluster.find("t", {})
            snapshot = service.metrics_snapshot().executor
            procs = [client._proc for client in pool.clients()]

            class FirstCallExpires(executors.Deadline):
                def remaining(self):
                    raise QueryTimeoutError("query exceeded its deadline")

            spec = executors.SubquerySpec(
                collection="t", query={}, hint=None, max_geo_ranges=None
            )
            with pytest.raises(QueryTimeoutError):
                pool.find(spec, FirstCallExpires(None))
            # The read paid for the forks, and shipped nothing.
            assert all(
                client._proc is not proc
                for client, proc in zip(pool.clients(), procs)
            )
            assert all(client.in_flight() == 0 for client in pool.clients())
            shipped = service.metrics_snapshot().executor
            assert shipped["remoteSubqueries"] == snapshot["remoteSubqueries"]
            assert shipped["replicaSyncs"] == (
                snapshot["replicaSyncs"] + len(pool.clients())
            )
            again = service.find("t", {})
            assert canonical_docs(again.documents) == canonical_docs(
                expected.documents
            )
            assert again.stats.as_dict() == expected.stats.as_dict()
            after = service.metrics_snapshot().executor
            assert after["remoteSubqueries"] == shipped["remoteSubqueries"] + 1
            assert after["replicaSyncs"] == shipped["replicaSyncs"]

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

        def execute_locked(host, plan):
            match, epoch = original(host, plan)
            return forged(match, epoch)

        monkeypatch.setattr(
            executors._WorkerHost, "_execute_locked", execute_locked
        )

    def test_reply_at_another_epoch_is_refused(
        self, cluster_factory, monkeypatch
    ):
        self.forge(
            monkeypatch,
            lambda match, epoch: (match, (epoch[0] + 1, epoch[1])),
        )
        with QueryService(cluster_factory(), process_config()) as service:
            with pytest.raises(ServiceError, match="epoch"):
                service.find("t", TARGETED)

    def test_reply_naming_an_unknown_rid_is_refused(
        self, cluster_factory, monkeypatch
    ):
        def forged(match, epoch):
            (_rids, stats), *rest = match.matches
            return (
                ClusterMatch(
                    match.shard_ids,
                    match.broadcast,
                    [([10**9], stats)] + rest,
                    match.plan_ms,
                ),
                epoch,
            )

        self.forge(monkeypatch, forged)
        with QueryService(cluster_factory(), process_config()) as service:
            with pytest.raises(ServiceError, match="record id 1000000000"):
                service.find("t", TARGETED)


    def test_worker_refuses_a_read_at_another_epoch(self, cluster_factory):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            service.find("t", TARGETED)  # fork the workers
            client = service._worker_pool.clients()[0]
            epoch = cluster.read_epoch("t")
            pending = client.submit(
                PlanMessage(
                    collection="t",
                    query=TARGETED,
                    hint=None,
                    max_geo_ranges=None,
                    fast_path=True,
                    shape_key=None,
                    exact_key=None,
                    epoch=(epoch[0] + 1, epoch[1]),
                )
            )
            with pytest.raises(ServiceError, match="stale"):
                pending.result(executors.Deadline(10_000.0))
            assert service.find("t", TARGETED).documents


def _zone_update(cluster):
    pattern = cluster.catalog.get("t").pattern
    cluster.update_zones(
        "t",
        [
            Zone(
                "hot",
                pattern.extract_canonical({"k": 2_000}),
                pattern.extract_canonical({"k": 4_000}),
                sorted(cluster.shards)[-1],
            )
        ],
    )


def _chunk_at(cluster, k):
    metadata = cluster.catalog.get("t")
    return metadata, metadata.chunk_for_key(
        metadata.pattern.extract_canonical({"k": k})
    )


def _chunk_split(cluster):
    cluster._split_chunk(*_chunk_at(cluster, 3_000))


def _pile_chunks(cluster):
    # Splits without relief leave the shard owning k=3000 with three
    # chunks more than the others: a balancer round has work to do.
    for k in (3_000, 3_000, 3_000):
        cluster._split_chunk(*_chunk_at(cluster, k))


def _balancer_migration(cluster):
    assert cluster.run_balancer("t") > 0


#: Per routing change: what runs before the first read, and the change
#: that runs between the two reads.
ROUTING_CHANGES = {
    "zone_update": (None, _zone_update),
    "chunk_split": (None, _chunk_split),
    "balancer_migration": (_pile_chunks, _balancer_migration),
}


class TestRoutingChangesBetweenReads:
    """A worker routes on its forked chunk map: a routing change
    between two reads must fork it afresh, and the second read must
    target what the parent's live chunk map targets."""

    @pytest.mark.parametrize("kind", sorted(ROUTING_CHANGES))
    def test_second_read_routes_on_the_live_chunk_map(
        self, cluster_factory, kind
    ):
        prepare, change = ROUTING_CHANGES[kind]
        cluster = cluster_factory()
        cluster.auto_balance = False
        if prepare is not None:
            prepare(cluster)
        queries = [TARGETED, {"k": 3_000}, {"k": {"$gte": 2_500, "$lt": 3_500}}]
        with QueryService(
            cluster, process_config(executor_workers=2)
        ) as service:
            for query in queries:
                service.find("t", query)
            forks = service.metrics_snapshot().executor["replicaSyncs"]
            version = cluster.metadata_version
            service._run_exclusive(lambda: change(cluster))
            assert cluster.metadata_version != version
            metadata = cluster.catalog.get("t")
            for query in queries:
                served = service.find("t", query)
                expected = reference_target_chunks(
                    metadata, parse_query(query)[0]
                )
                assert served.stats.targeted_shards == expected.shard_ids
                library = cluster.find("t", query)
                assert canonical_docs(served.documents) == canonical_docs(
                    library.documents
                )
                assert served.stats.as_dict() == library.stats.as_dict()
            assert (
                service.metrics_snapshot().executor["replicaSyncs"] > forks
            )


class TestWorkerLifecycle:
    def test_dead_worker_is_respawned_with_a_fresh_replica(
        self, cluster_factory
    ):
        cluster = cluster_factory()
        with QueryService(cluster, process_config()) as service:
            expected = service.find("t", TARGETED)
            # Reads one at a time all go to the first worker: the
            # fewest in flight, the lowest index on ties.
            client = service._worker_pool.clients()[0]
            old_proc = client._proc
            old_proc.terminate()
            # Wait for the exit without reaping: the client's reader
            # thread is the one that reaps its worker.
            assert wait([old_proc.sentinel], 5.0)
            served = service.find("t", TARGETED)
            assert canonical_docs(served.documents) == canonical_docs(
                expected.documents
            )
            assert client._proc is not old_proc
            assert not wait([client._proc.sentinel], 0)

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
