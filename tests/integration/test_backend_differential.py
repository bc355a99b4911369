"""Differential gates over the executor backends and the durable engine.

Two checks that have no twin elsewhere at the paper's deployment (the
*hil* approach, rendered Q^s + Q^b plus a seeded randomized stream):

* **backends** — ``repro.reference``, the library path
  (``ShardedCluster.find``), the thread-pool executor and the
  worker-process executor return
  per-document byte-identical results and equal counter frames, on a
  first pass and on a second one that the process backend serves from
  its workers' result caches;
* **durability** — a durable deployment closed without a checkpoint
  and reopened from its directories answers the same queries with the
  same documents and counter frames as before the close.

The smaller synthetic-collection versions of the first check live in
``tests/service/test_process_executor.py`` and ``test_wire.py``; the
count-level durable-vs-memory check in ``tests/workloads/test_ingest.py``.
"""

import os
import pickle

import pytest

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

    Whole-list pickles differ across backends purely through pickler
    memoization (the parent's documents share interned constants, a
    worker's replica shares per-shard copies), so parity is defined on
    each document's own encoding and on the deterministic counters.
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
            for _pass in range(2):
                served = [
                    canonical(service.find(COLLECTION, query))
                    for query in workload
                ]
                assert served == reference
            executor = service.metrics_snapshot().executor
        if backend == "process":
            # The second pass really was answered from the caches.
            assert executor["remoteCacheHits"] > 0
            assert executor["replicaSyncs"] <= len(deployment.cluster.shards)
        else:
            assert executor["remoteSubqueries"] == 0


class TestDurableReopen:
    def test_unchecked_close_and_reopen_answers_the_same(self, tmp_path):
        docs = fleet_documents()
        deployment = deploy_hil(
            n_shards=4,
            durability=DurabilityConfig(
                directory=str(tmp_path), memtable_max_bytes=64 * 1024
            ),
            docs=docs[: N_DOCS // 2],
        )
        # The initial load is one WAL batch per shard.  The second half
        # arrives live, which is what leaves the storage states this
        # gate needs: flushes as memtables fill, splits, and migrations
        # whose tombstones recovery must honour.
        deployment.cluster.insert_many(
            COLLECTION, map(deployment.approach.transform, docs[N_DOCS // 2 :])
        )
        deployment.cluster.run_balancer(COLLECTION)
        workload = rendered_workload(deployment)

        def frames(collection):
            return [
                (result.documents, result.stats.as_dict())
                for result in map(collection.find_with_stats, workload)
            ]

        # A fresh cluster cannot re-derive the old chunk routing, and
        # index definitions are catalog state, not WAL records — so the
        # comparison runs where the data lives, one shard database at a
        # time, with the shard's own index definitions re-declared.
        before = {}
        definitions = {}
        flushed = unflushed = 0
        try:
            for shard in deployment.cluster.shards.values():
                collection = shard.collection(COLLECTION)
                before[shard.database.name] = frames(collection)
                definitions[shard.database.name] = [
                    d
                    for d in collection.index_definitions()
                    if d.name != "_id_"
                ]
                stats = collection.engine.stats()
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

        recovered_total = 0
        for name in sorted(os.listdir(tmp_path)):
            database = Database(
                name,
                durability=DurabilityConfig(
                    directory=str(tmp_path / name)
                ),
            )
            try:
                collection = database.collection(COLLECTION)
                for definition in definitions[name]:
                    collection.create_index(
                        [(f.path, f.kind) for f in definition.fields],
                        name=definition.name,
                        geohash_bits=definition.geohash_bits,
                    )
                recovered_total += len(collection)
                assert frames(collection) == before[name], name
            finally:
                database.close()
        assert recovered_total == N_DOCS
