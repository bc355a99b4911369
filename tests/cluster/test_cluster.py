"""Integration tests for the sharded cluster."""

import datetime as dt
import random

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.cluster.zones import Zone
from repro.docstore import bson
from repro.errors import ShardingError
from repro.reference import reference_matches

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


def make_cluster(n_shards=4, chunk_max_bytes=4 * 1024):
    return ShardedCluster(
        topology=ClusterTopology(n_shards=n_shards),
        chunk_max_bytes=chunk_max_bytes,
    )


def load_docs(cluster, n=600, shard_key=(("h", 1),)):
    cluster.shard_collection("t", list(shard_key))
    rng = random.Random(5)
    docs = []
    for i in range(n):
        docs.append(
            {
                "_id": i,
                "h": rng.randrange(0, 1000),
                "date": T0 + dt.timedelta(hours=rng.uniform(0, 2000)),
                "pad": "x" * 64,
            }
        )
    cluster.insert_many("t", docs)
    return docs


class TestTopology:
    def test_defaults_match_paper(self):
        t = ClusterTopology()
        assert (t.n_shards, t.n_config_servers, t.n_routers) == (12, 3, 2)

    def test_rejects_invalid(self):
        with pytest.raises(ShardingError):
            ClusterTopology(n_shards=0)
        with pytest.raises(ShardingError):
            ClusterTopology(n_routers=0)


class TestShardCollection:
    def test_initial_single_chunk(self):
        cluster = make_cluster()
        meta = cluster.shard_collection("t", [("h", 1)])
        assert len(meta.chunks) == 1
        meta.validate()

    def test_shard_key_index_created_everywhere(self):
        cluster = make_cluster()
        cluster.shard_collection("t", [("h", 1), ("date", 1)])
        for shard in cluster.shards.values():
            definitions = shard.collection("t").index_definitions()
            assert "shardkey_h_date" in {d.name for d in definitions}

    def test_double_sharding_rejected(self):
        cluster = make_cluster()
        cluster.shard_collection("t", [("h", 1)])
        with pytest.raises(ShardingError):
            cluster.shard_collection("t", [("h", 1)])


class TestInsertSplitBalance:
    def test_chunks_split_as_data_grows(self):
        cluster = make_cluster()
        load_docs(cluster)
        meta = cluster.catalog.get("t")
        assert len(meta.chunks) > 4
        meta.validate()
        cluster.validate("t")

    def test_all_documents_stored_exactly_once(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        total = sum(
            len(s.collection("t")) for s in cluster.shards.values()
        )
        assert total == len(docs)

    def test_balancer_evens_chunk_counts(self):
        cluster = make_cluster()
        load_docs(cluster)
        cluster.run_balancer("t")
        counts = cluster.chunk_distribution("t")
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_auto_balance_spreads_during_load(self):
        cluster = make_cluster()
        load_docs(cluster)
        counts = cluster.chunk_distribution("t")
        assert len(counts) == 4  # every shard received chunks

    def test_jumbo_chunk_detected(self):
        # All documents share one full shard-key value: unsplittable.
        cluster = make_cluster(chunk_max_bytes=512)
        cluster.shard_collection("t", [("h", 1)])
        cluster.insert_many(
            "t", [{"_id": i, "h": 7, "pad": "x" * 64} for i in range(100)]
        )
        meta = cluster.catalog.get("t")
        assert any(c.jumbo for c in meta.chunks)

    def test_compound_key_splits_on_second_field(self):
        # The paper's Section 4.2.2: one hot Hilbert cell splits on date.
        cluster = make_cluster(chunk_max_bytes=2 * 1024)
        cluster.shard_collection("t", [("h", 1), ("date", 1)])
        cluster.insert_many(
            "t",
            [
                {
                    "_id": i,
                    "h": 7,
                    "date": T0 + dt.timedelta(minutes=i),
                    "pad": "x" * 64,
                }
                for i in range(300)
            ],
        )
        meta = cluster.catalog.get("t")
        assert len(meta.chunks) > 1
        assert not any(c.jumbo for c in meta.chunks)
        cluster.validate("t")


class TestFind:
    def test_agrees_with_brute_force(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        q = {"h": {"$gte": 100, "$lte": 400}}
        result = cluster.find("t", q)
        expected = [d for d in docs if reference_matches(q, d)]
        assert len(result) == len(expected)
        assert not result.stats.broadcast

    def test_broadcast_on_non_shard_key(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        q = {"date": {"$gte": T0, "$lte": T0 + dt.timedelta(hours=500)}}
        result = cluster.find("t", q)
        expected = [d for d in docs if reference_matches(q, d)]
        assert len(result) == len(expected)
        assert result.stats.broadcast

    def test_targeted_uses_fewer_nodes(self):
        cluster = make_cluster()
        load_docs(cluster)
        cluster.run_balancer("t")
        narrow = cluster.find("t", {"h": {"$gte": 10, "$lte": 20}})
        assert narrow.stats.nodes < len(cluster.shards)

    def test_execution_time_positive(self):
        cluster = make_cluster()
        load_docs(cluster)
        result = cluster.find("t", {"h": {"$gte": 0, "$lte": 999}})
        assert result.stats.execution_time_ms > 0

    def test_stats_dict(self):
        cluster = make_cluster()
        load_docs(cluster)
        result = cluster.find("t", {"h": {"$gte": 0, "$lte": 10}})
        d = result.stats.as_dict()
        assert "nodes" in d and "maxKeysExamined" in d


class TestWrites:
    def test_a_write_compiles_its_query_once(self, monkeypatch):
        # The router parses the query to target it and hands the
        # compiled matcher to every targeted shard.
        from repro.docstore import collection as collection_module

        cluster = make_cluster()
        docs = load_docs(cluster)
        cluster.run_balancer("t")
        query = {"date": {"$lt": T0 + dt.timedelta(hours=700)}}
        expected = sum(reference_matches(query, d) for d in docs)

        def compile_again(query):
            raise AssertionError("a shard compiled the query again")

        monkeypatch.setattr(collection_module, "Matcher", compile_again)
        assert cluster.update_many("t", query, {"$set": {"pad": "y"}}) == expected
        assert cluster.delete_many("t", query) == expected
        assert cluster.count_documents("t", {}) == len(docs) - expected


class TestMigrationsAndZones:
    def _zones(self, cluster):
        pattern = cluster.catalog.get("t").pattern
        gmin, gmax = pattern.global_min(), pattern.global_max()
        mid = (bson.sort_key(500),)
        return [
            Zone("low", gmin, mid, "shard00"),
            Zone("high", mid, gmax, "shard01"),
        ]

    def test_update_zones_moves_data(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        cluster.update_zones("t", self._zones(cluster))
        meta = cluster.catalog.get("t")
        for chunk in meta.chunks:
            zone = meta.zone_set.zone_for_range(chunk.min_key, chunk.max_key)
            assert zone is not None
            assert chunk.shard_id == zone.shard_id
        cluster.validate("t")
        # No data lost.
        total = sum(len(s.collection("t")) for s in cluster.shards.values())
        assert total == len(docs)

    def test_zones_improve_targeting_locality(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        cluster.run_balancer("t")
        before = cluster.find("t", {"h": {"$gte": 0, "$lte": 450}})
        cluster.update_zones("t", self._zones(cluster))
        after = cluster.find("t", {"h": {"$gte": 0, "$lte": 450}})
        assert len(after) == len(before)
        assert after.stats.nodes <= before.stats.nodes
        assert after.stats.nodes == 1  # all low-h data on shard00

    def test_zone_unknown_shard_rejected(self):
        cluster = make_cluster()
        load_docs(cluster)
        pattern = cluster.catalog.get("t").pattern
        bad = [
            Zone(
                "z",
                pattern.global_min(),
                pattern.global_max(),
                "shard99",
            )
        ]
        with pytest.raises(ShardingError):
            cluster.update_zones("t", bad)

    def test_queries_correct_after_zones(self):
        cluster = make_cluster()
        docs = load_docs(cluster)
        cluster.update_zones("t", self._zones(cluster))
        q = {"h": {"$gte": 250, "$lte": 750}}
        result = cluster.find("t", q)
        expected = [d for d in docs if reference_matches(q, d)]
        assert len(result) == len(expected)


class TestAggregateAndTotals:
    def test_cluster_aggregate(self):
        cluster = make_cluster()
        load_docs(cluster, n=100)
        out = cluster.aggregate("t", [{"$project": {"h": 1, "_id": 0}}])
        assert sorted(d["h"] for d in out) == sorted(
            d["h"] for d in cluster.find("t", {}).documents
        )
        assert len(out) == 100 and set(out[0]) == {"h"}

    def test_bucket_auto_across_shards(self):
        cluster = make_cluster()
        load_docs(cluster, n=200)
        out = cluster.aggregate(
            "t", [{"$bucketAuto": {"groupBy": "$h", "buckets": 4}}]
        )
        assert sum(b["count"] for b in out) == 200

    def test_collection_totals(self):
        cluster = make_cluster()
        load_docs(cluster, n=50)
        totals = cluster.collection_totals("t")
        assert totals["count"] == 50
        assert totals["dataSize"] > 0
        assert totals["totalIndexSize"] > 0
