"""Differential gate: the bulk initial load vs the live insert path.

``BulkLoader.load`` into an empty sharded collection plans the chunk
layout on ``(shard key, BSON size)`` pairs, places each document once
and builds every B-tree bottom-up (``ShardedCluster.bulk_load``).  The
reference is the path it replaces: the same prepared documents fed
through ``ShardedCluster.insert_many`` — one routed insert, split check
and relief migration at a time — then ``run_balancer``.  Both must end
with the same chunk map, the same documents on the same shards, the
same index sizes, and the same counter frames and results for the
paper's queries, for all four approaches, under default balancing and
under zones, and on a durable deployment through an un-checkpointed
close and recovery.
"""

import os

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.approaches import (
    APPROACH_NAMES,
    COLLECTION,
    Deployment,
    deploy_approach,
    make_approach,
)
from repro.core.loader import BulkLoader
from repro.core.zoning import configure_zones
from repro.datagen.datasets import ReproScale, load_r_dataset
from repro.docstore.database import Database
from repro.docstore.lsm import DurabilityConfig
from repro.errors import DuplicateKeyError, ShardingError
from repro.workloads.queries import (
    big_queries,
    randomized_queries,
    small_queries,
)

TOPOLOGY = ClusterTopology(n_shards=12)
CHUNK_BYTES = 64 * 1024
QUERIES = small_queries() + big_queries() + randomized_queries(24)


@pytest.fixture(scope="module")
def dataset():
    return load_r_dataset(ReproScale(r1_records=16_000))


def prepared_documents(cluster):
    """What the loader inserted, in arrival order (driver-clock ids)."""
    documents = [
        doc
        for shard in cluster.shards.values()
        for doc in shard.collection(COLLECTION).all_documents()
    ]
    return sorted(documents, key=lambda doc: doc["_id"])


def empty_cluster(approach, topology=TOPOLOGY, chunk_max_bytes=CHUNK_BYTES):
    cluster = ShardedCluster(topology=topology, chunk_max_bytes=chunk_max_bytes)
    cluster.shard_collection(COLLECTION, approach.shard_key_spec())
    for spec, name in approach.index_specs():
        cluster.create_index(COLLECTION, spec, name=name)
    return cluster


def deploy_live(approach, prepared, **cluster_options):
    """The reference arm: one routed insert at a time, then balance."""
    cluster = empty_cluster(approach, **cluster_options)
    cluster.insert_many(COLLECTION, prepared)
    cluster.run_balancer(COLLECTION)
    return Deployment(approach=approach, cluster=cluster)


def chunk_list(cluster):
    return [
        (c.min_key, c.max_key, c.shard_id, c.doc_count, c.byte_size, c.jumbo)
        for c in cluster.catalog.get(COLLECTION).chunks
    ]


def ids_per_shard(cluster):
    return {
        shard_id: {
            doc["_id"] for doc in shard.collection(COLLECTION).all_documents()
        }
        for shard_id, shard in cluster.shards.items()
    }


def index_sizes_per_shard(cluster):
    return {
        shard_id: shard.collection(COLLECTION).index_sizes()
        for shard_id, shard in cluster.shards.items()
    }


def answers(deployment):
    """Counter frame and sorted result ids of every query."""
    out = []
    for query in QUERIES:
        result, _ = deployment.execute(query)
        out.append(
            (
                query.label,
                result.stats.as_dict(),
                sorted(doc["_id"] for doc in result.documents),
            )
        )
    return out


def validate_trees(cluster):
    cluster.validate(COLLECTION)
    for shard in cluster.shards.values():
        collection = shard.collection(COLLECTION)
        for name in collection.list_indexes():
            collection.get_index(name).tree.validate()


def assert_same_deployment(bulk, live):
    assert chunk_list(bulk.cluster) == chunk_list(live.cluster)
    assert ids_per_shard(bulk.cluster) == ids_per_shard(live.cluster)
    assert index_sizes_per_shard(bulk.cluster) == index_sizes_per_shard(
        live.cluster
    )
    assert answers(bulk) == answers(live)
    validate_trees(bulk.cluster)
    validate_trees(live.cluster)


@pytest.mark.parametrize("name", APPROACH_NAMES)
def test_bulk_load_matches_the_live_path(dataset, name):
    info, docs = dataset
    approach = make_approach(name, dataset_bbox=info.bbox)
    bulk = deploy_approach(
        approach, docs, topology=TOPOLOGY, chunk_max_bytes=CHUNK_BYTES
    )
    # One bump for the DDL of each index, one for the whole load.
    assert bulk.cluster.metadata_version == 2 + len(approach.index_specs())
    live = deploy_live(approach, prepared_documents(bulk.cluster))
    assert len(chunk_list(bulk.cluster)) > 2 * TOPOLOGY.n_shards
    assert any(len(ids) for _, _, ids in answers(bulk))
    assert_same_deployment(bulk, live)
    # Zones re-split and migrate live data on both arms: a bulk-built
    # shard must take that exactly as an insert-built one does.
    for deployment in (bulk, live):
        configure_zones(deployment.cluster, COLLECTION, approach.zone_field())
    assert_same_deployment(bulk, live)


def test_durable_bulk_load_matches_and_recovers(dataset, tmp_path):
    info, docs = dataset
    approach = make_approach("hil")
    bulk = deploy_approach(
        approach,
        docs,
        topology=TOPOLOGY,
        chunk_max_bytes=CHUNK_BYTES,
        durability=DurabilityConfig(directory=str(tmp_path)),
    )
    rendered = [approach.render_query(query)[0] for query in QUERIES]

    def frames(collection):
        return [
            (result.documents, result.stats.as_dict())
            for result in map(collection.find_with_stats, rendered)
        ]

    before = {}
    definitions = {}
    try:
        live = deploy_live(approach, prepared_documents(bulk.cluster))
        assert_same_deployment(bulk, live)
        for shard in bulk.cluster.shards.values():
            collection = shard.collection(COLLECTION)
            before[shard.database.name] = frames(collection)
            definitions[shard.database.name] = [
                d for d in collection.index_definitions() if d.name != "_id_"
            ]
            # One WAL batch per shard, nothing flushed: recovery below
            # replays the whole load from the log.
            assert collection.engine.stats().flushes == 0
    finally:
        bulk.cluster.close()  # no checkpoint
    assert sum(len(docs_) for f in before.values() for docs_, _ in f) > 0

    recovered = 0
    for name in sorted(os.listdir(tmp_path)):
        database = Database(
            name, durability=DurabilityConfig(directory=str(tmp_path / name))
        )
        try:
            collection = database.collection(COLLECTION)
            for definition in definitions[name]:
                collection.create_index(
                    [(f.path, f.kind) for f in definition.fields],
                    name=definition.name,
                    geohash_bits=definition.geohash_bits,
                )
            recovered += len(collection)
            assert frames(collection) == before[name], name
            for index_name in collection.list_indexes():
                collection.get_index(index_name).tree.validate()
        finally:
            database.close()
    assert recovered == len(docs)


SMALL = dict(topology=ClusterTopology(n_shards=3), chunk_max_bytes=8 * 1024)


def small_prepared(dataset, n=600):
    approach = make_approach("hil")
    _info, docs = dataset
    prepared = [
        dict(approach.transform(doc), _id=i) for i, doc in enumerate(docs[:n])
    ]
    return approach, prepared


def test_duplicate_id_raises_on_both_paths(dataset):
    approach, prepared = small_prepared(dataset)
    # The same document twice: same shard key, so both copies meet on
    # one shard whichever way the chunks have moved by then.
    stream = prepared + [dict(prepared[17])]
    live = empty_cluster(approach, **SMALL)
    with pytest.raises(DuplicateKeyError):
        live.insert_many(COLLECTION, stream)
    bulk = empty_cluster(approach, **SMALL)
    with pytest.raises(DuplicateKeyError):
        bulk.bulk_load(COLLECTION, stream)
    # Nothing was kept: the collection is still empty, still valid and
    # still loadable.
    assert bulk.is_empty(COLLECTION)
    bulk.validate(COLLECTION)
    assert bulk.bulk_load(COLLECTION, prepared) == len(prepared)
    validate_trees(bulk)


def test_non_empty_collection_takes_the_live_path(dataset, monkeypatch):
    approach, prepared = small_prepared(dataset)
    head, tail = prepared[:400], prepared[400:]
    loaded = empty_cluster(approach, **SMALL)
    assert BulkLoader().load(loaded, COLLECTION, head) == len(head)
    version_after_bulk = loaded.metadata_version
    with pytest.raises(ShardingError):
        loaded.bulk_load(COLLECTION, tail)

    def refuse(*_args):
        raise AssertionError("bulk path taken into a non-empty collection")

    monkeypatch.setattr(loaded, "bulk_load", refuse)
    assert BulkLoader(batch_size=64).load(loaded, COLLECTION, tail) == len(tail)
    # The live path splits (and bumps) as it goes.
    assert loaded.metadata_version > version_after_bulk + 1

    reference = empty_cluster(approach, **SMALL)
    reference.insert_many(COLLECTION, head)
    reference.run_balancer(COLLECTION)
    reference.insert_many(COLLECTION, tail)
    reference.run_balancer(COLLECTION)
    assert chunk_list(loaded) == chunk_list(reference)
    assert ids_per_shard(loaded) == ids_per_shard(reference)
    validate_trees(loaded)
