"""Differential gates over the executor backends and the durable engine.

Two checks that have no twin elsewhere at the paper's deployment (the
*hil* approach, rendered Q^s + Q^b plus a seeded randomized stream):

* **backends** — ``repro.reference``, the library path
  (``ShardedCluster.find``), the thread-pool executor and the
  worker-process executor return
  per-document byte-identical results and equal counter frames, on a
  first pass and on a second one, which the process backend runs on
  its workers again (no worker caches results);
* **durability** — a durable deployment answers the rendered workload
  with the same cluster-level documents as an in-memory twin built
  from the same documents, live inserts and balancer run; closed
  without a checkpoint and reopened from its directories, it answers
  the same queries with the same documents and counter frames as
  before the close — also after the process backend's forked workers,
  which inherit the engines' files, have served it and been forked
  afresh after a write.

The smaller synthetic-collection versions of the first check live in
``tests/service/test_process_executor.py`` and ``test_wire.py``.
"""

import multiprocessing
import os
import pickle

import pytest

# Registers the worker instrumenter, so the process backend also runs
# here with REPRO_WORKER_SANITIZE=1 (each worker then checks its own
# lock order and ships any violation back with its replies).
import repro.sanitizer  # noqa: F401
from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, deploy_approach, make_approach
from repro.datagen import FleetConfig, FleetGenerator
from repro.docstore.database import Database
from repro.docstore.lsm import DurabilityConfig
from repro.reference import reference_cluster_find
from repro.service import QueryService, ServiceConfig, render_workload
from repro.service.wire import WIRE_PROTOCOL
from repro.workloads.queries import (
    big_queries,
    randomized_queries,
    small_queries,
)

N_DOCS = 2_000


def fleet_documents():
    return FleetGenerator(FleetConfig(n_vehicles=40)).generate_list(N_DOCS)


def deploy_hil(n_shards, durability=None, docs=None):
    return deploy_approach(
        make_approach("hil"),
        fleet_documents() if docs is None else docs,
        topology=ClusterTopology(n_shards=n_shards),
        chunk_max_bytes=32 * 1024,
        durability=durability,
    )


def rendered_workload(deployment):
    queries = small_queries() + big_queries() + randomized_queries(24)
    return render_workload(deployment.approach, queries)


def canonical(result):
    """Per-document pickles plus the counter frame.

    A whole-list pickle also encodes which objects the documents share
    (the pickler's memo), which is not part of a result, so parity is
    defined on each document's own encoding and on the deterministic
    counters.
    """
    return (
        [pickle.dumps(d, protocol=WIRE_PROTOCOL) for d in result.documents],
        result.stats.as_dict(),
    )


class TestBackends:
    @pytest.fixture(scope="class")
    def deployment(self):
        return deploy_hil(n_shards=12)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_matches_the_library_path(self, deployment, backend):
        workload = rendered_workload(deployment)
        reference = [
            canonical(deployment.cluster.find(COLLECTION, query))
            for query in workload
        ]
        assert any(documents for documents, _stats in reference)
        # Anchor the library frames, and so both backends, to the oracle.
        assert reference == [
            canonical(
                reference_cluster_find(deployment.cluster, COLLECTION, query)
            )
            for query in workload
        ]
        config = ServiceConfig(executor=backend, executor_workers=2)
        with QueryService(deployment.cluster, config) as service:
            passes = []
            for _pass in range(2):
                served = [
                    canonical(service.find(COLLECTION, query))
                    for query in workload
                ]
                assert served == reference
                passes.append(service.metrics_snapshot().executor)
        first, executor = passes
        if backend == "process":
            # The second pass ran remotely again, subquery for subquery.
            assert first["remoteSubqueries"] > 0
            assert executor["remoteSubqueries"] == 2 * first["remoteSubqueries"]
            assert executor["remoteCacheHits"] == 0
            # Nothing was written: each worker was forked once.
            assert executor["replicaSyncs"] == config.executor_workers
        else:
            assert executor["remoteSubqueries"] == 0


def deploy_half_then_live(docs, durability=None):
    """Bulk-load half the documents, insert the rest live, balance.

    The initial load is one WAL batch per shard.  The second half
    arrives live, which is what leaves the storage states the durable
    gates need: flushes as memtables fill, splits, and migrations whose
    tombstones recovery must honour.
    """
    deployment = deploy_hil(
        n_shards=4, durability=durability, docs=docs[: N_DOCS // 2]
    )
    deployment.cluster.insert_many(
        COLLECTION, map(deployment.approach.transform, docs[N_DOCS // 2 :])
    )
    deployment.cluster.run_balancer(COLLECTION)
    return deployment


def durable(tmp_path):
    return DurabilityConfig(
        directory=str(tmp_path), memtable_max_bytes=64 * 1024
    )


class TestDurableReopen:
    def test_durable_and_memory_agree(self, tmp_path):
        docs = fleet_documents()
        twins = [
            deploy_half_then_live(docs),
            deploy_half_then_live(docs, durability=durable(tmp_path)),
        ]
        try:
            workload = rendered_workload(twins[0])
            memory, on_disk = (
                [deployment.cluster.find(COLLECTION, q).documents for q in workload]
                for deployment in twins
            )
            assert any(memory)
            assert on_disk == memory
        finally:
            for deployment in twins:
                deployment.cluster.close()

    def test_unchecked_close_and_reopen_answers_the_same(self, tmp_path):
        deployment = deploy_half_then_live(
            fleet_documents(), durability=durable(tmp_path)
        )
        workload = rendered_workload(deployment)
        # A fresh cluster cannot re-derive the old chunk routing, and
        # index definitions are catalog state, not WAL records — so the
        # comparison runs where the data lives, one shard database at a
        # time, with the shard's own index definitions re-declared.
        flushed = unflushed = 0
        try:
            before, definitions = shard_frames(deployment, workload)
            for shard in deployment.cluster.shards.values():
                stats = shard.collection(COLLECTION).engine.stats()
                flushed += stats.flushes
                unflushed += stats.memtable_entries
        finally:
            deployment.cluster.close()
        # The gate needs both storage states: flushed runs (merged by
        # the background compactor as it gets to them) and —
        # un-checkpointed — a tail of the live inserts and of the
        # balancer's migrations that is still only in the WAL.
        assert flushed and unflushed
        assert sum(len(docs) for f in before.values() for docs, _ in f) > 0
        recovered = reopen(tmp_path, definitions, workload)
        for name, (_count, frames) in recovered.items():
            assert frames == before[name], name
        assert sum(count for count, _frames in recovered.values()) == N_DOCS

    def test_process_workers_leave_the_engine_alone(self, tmp_path):
        # Workers are forks: each inherits the engines' open files and
        # compactor state.  Serve through them, write a batch (the next
        # read forks afresh), then close without a checkpoint: what
        # recovery reads back must be what the parent wrote.
        docs = fleet_documents()
        deployment = deploy_half_then_live(
            docs[:-LATE_DOCS], durability=durable(tmp_path)
        )
        workload = rendered_workload(deployment)
        config = ServiceConfig(executor="process", executor_workers=2)
        try:
            with QueryService(deployment.cluster, config) as service:

                def serve():
                    served = [
                        canonical(service.find(COLLECTION, query))
                        for query in workload
                    ]
                    assert served == [
                        canonical(deployment.cluster.find(COLLECTION, query))
                        for query in workload
                    ]
                    return service.metrics_snapshot().executor["replicaSyncs"]

                forks = serve()
                assert forks > 0
                service.insert_many(
                    COLLECTION,
                    map(deployment.approach.transform, docs[-LATE_DOCS:]),
                )
                assert serve() > forks
            for child in multiprocessing.active_children():
                child.join(timeout=10.0)
            before, definitions = shard_frames(deployment, workload)
        finally:
            deployment.cluster.close()
        recovered = reopen(tmp_path, definitions, workload)
        for name, (_count, frames) in recovered.items():
            assert frames == before[name], name
        assert sum(count for count, _frames in recovered.values()) == N_DOCS


#: Documents the process-backend durability test inserts through the
#: service, after its workers have forked.
LATE_DOCS = 100


def frames_of(collection, workload):
    """Shard-level documents and counter frames, query by query."""
    return [
        (result.documents, result.stats.as_dict())
        for result in map(collection.find_with_stats, workload)
    ]


def shard_frames(deployment, workload):
    """Each shard database's frames and its index definitions, by name."""
    before = {}
    definitions = {}
    for shard in deployment.cluster.shards.values():
        collection = shard.collection(COLLECTION)
        before[shard.database.name] = frames_of(collection, workload)
        definitions[shard.database.name] = [
            d for d in collection.index_definitions() if d.name != "_id_"
        ]
    return before, definitions


def reopen(directory, definitions, workload):
    """Each shard database reopened from ``directory``: its document
    count and frames, by name, with its index definitions re-declared."""
    recovered = {}
    for name in sorted(os.listdir(directory)):
        database = Database(
            name, durability=DurabilityConfig(directory=str(directory / name))
        )
        try:
            collection = database.collection(COLLECTION)
            for definition in definitions[name]:
                collection.create_index(
                    [(f.path, f.kind) for f in definition.fields],
                    name=definition.name,
                    geohash_bits=definition.geohash_bits,
                )
            recovered[name] = (len(collection), frames_of(collection, workload))
        finally:
            database.close()
    return recovered
