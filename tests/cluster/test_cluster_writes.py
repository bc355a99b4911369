"""Tests for cluster-level delete_many / update_many."""

import datetime as dt
import random

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.cluster.router import target_chunks
from repro.docstore.bson import bson_document_size
from repro.docstore.planner import analyze_query
from repro.errors import ShardingError

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


def loaded_cluster(n=300):
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=3), chunk_max_bytes=4 * 1024
    )
    cluster.shard_collection("t", [("h", 1)])
    rng = random.Random(2)
    cluster.insert_many(
        "t",
        [
            {
                "_id": i,
                "h": rng.randrange(0, 500),
                "flag": i % 2 == 0,
                "n": i,
                "pad": "x" * 40,
            }
            for i in range(n)
        ],
    )
    cluster.run_balancer("t")
    return cluster


class TestDeleteMany:
    def test_targeted_delete(self):
        cluster = loaded_cluster()
        before = cluster.collection_totals("t")["count"]
        deleted = cluster.delete_many("t", {"h": {"$gte": 0, "$lte": 100}})
        assert deleted > 0
        assert cluster.collection_totals("t")["count"] == before - deleted
        assert len(cluster.find("t", {"h": {"$gte": 0, "$lte": 100}})) == 0
        cluster.validate("t")

    def test_broadcast_delete(self):
        cluster = loaded_cluster()
        deleted = cluster.delete_many("t", {"flag": True})
        assert deleted == 150
        assert len(cluster.find("t", {"flag": True})) == 0
        cluster.validate("t")

    def test_delete_nothing(self):
        cluster = loaded_cluster()
        assert cluster.delete_many("t", {"h": {"$gte": 10_000}}) == 0


class TestUpdateMany:
    def test_broadcast_update(self):
        cluster = loaded_cluster()
        updated = cluster.update_many(
            "t", {"flag": True}, {"$set": {"reviewed": True}}
        )
        assert updated == 150
        assert len(cluster.find("t", {"reviewed": True})) == 150

    def test_targeted_update(self):
        cluster = loaded_cluster()
        updated = cluster.update_many(
            "t", {"h": {"$gte": 0, "$lte": 50}}, {"$inc": {"n": 1000}}
        )
        assert updated == len(cluster.find("t", {"n": {"$gte": 1000}}))

    def test_shard_key_mutation_rejected(self):
        cluster = loaded_cluster()
        with pytest.raises(ShardingError):
            cluster.update_many("t", {}, {"$set": {"h": 1}})
        with pytest.raises(ShardingError):
            cluster.update_many("t", {}, {"$inc": {"h": 5}})

    def test_queries_correct_after_update(self):
        cluster = loaded_cluster()
        cluster.update_many("t", {}, {"$set": {"seen": 1}})
        result = cluster.find("t", {"h": {"$gte": 100, "$lte": 400}})
        assert all(d["seen"] == 1 for d in result)
        cluster.validate("t")


def chunk_counters(cluster, name):
    metadata = cluster.catalog.get(name)
    return [(c.doc_count, c.byte_size) for c in metadata.chunks]


def recounted(cluster, name):
    """Every chunk's (doc_count, byte_size), from the documents alone."""
    metadata = cluster.catalog.get(name)
    totals = {id(c): [0, 0] for c in metadata.chunks}
    for doc in cluster.find(name, {}):
        chunk = metadata.chunk_for_key(metadata.pattern.extract_canonical(doc))
        totals[id(chunk)][0] += 1
        totals[id(chunk)][1] += bson_document_size(doc)
    return [tuple(totals[id(c)]) for c in metadata.chunks]


class TestChunkCountersAfterWrites:
    def test_counters_match_recount_after_updates_and_deletes(self, monkeypatch):
        cluster = ShardedCluster(
            topology=ClusterTopology(n_shards=4), chunk_max_bytes=4096
        )
        cluster.shard_collection("t", [("h", 1)])
        rng = random.Random(26)
        cluster.insert_many(
            "t",
            [
                {"_id": i, "h": rng.randrange(0, 1000), "n": i}
                for i in range(2000)
            ],
        )
        assert chunk_counters(cluster, "t") == recounted(cluster, "t")
        recounts = []
        original = cluster._recount_chunk

        def counting(metadata, chunk):
            recounts.append(chunk)
            original(metadata, chunk)

        monkeypatch.setattr(cluster, "_recount_chunk", counting)
        metadata = cluster.catalog.get("t")
        for step in range(12):
            lo = rng.randrange(0, 1000)
            query = {"h": {"$gte": lo, "$lt": lo + rng.randrange(1, 200)}}
            if step % 4 == 3:
                query = {"n": {"$lt": rng.randrange(0, 2000)}}  # broadcast
            targeting = target_chunks(metadata, analyze_query(query))
            recounts.clear()
            if step % 3 == 2:
                touched = cluster.delete_many("t", query)
            else:
                pad = "x" * rng.randrange(0, 500)
                touched = cluster.update_many("t", query, {"$set": {"pad": pad}})
            assert chunk_counters(cluster, "t") == recounted(cluster, "t"), step
            # Exactly the targeted chunks are recounted, none when idle.
            expected = targeting.chunks if touched else []
            assert [id(c) for c in recounts] == [id(c) for c in expected]
        cluster.validate("t")
