"""Tests for the bulk loader."""

import datetime as dt

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.loader import DEFAULT_BATCH_SIZE, BulkLoader

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


def make_cluster():
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=2), chunk_max_bytes=64 * 1024
    )
    cluster.shard_collection("t", [("v", 1)])
    return cluster


class TestLoader:
    def test_paper_batch_size_default(self):
        assert DEFAULT_BATCH_SIZE == 15_000

    def test_loads_all_documents(self):
        cluster = make_cluster()
        loader = BulkLoader(batch_size=7)
        n = loader.load(cluster, "t", ({"v": i} for i in range(100)))
        assert n == 100
        assert cluster.collection_totals("t")["count"] == 100

    def test_assigns_monotonic_objectids(self):
        cluster = make_cluster()
        BulkLoader(batch_size=10).load(
            cluster, "t", [{"v": i} for i in range(50)]
        )
        ids = []
        for shard in cluster.shards.values():
            for doc in shard.collection("t").all_documents():
                ids.append((doc["v"], doc["_id"]))
        ids.sort()
        oids = [oid for _, oid in ids]
        assert all(a < b for a, b in zip(oids, oids[1:]))

    def test_objectid_timestamps_advance_with_rate(self):
        cluster = make_cluster()
        loader = BulkLoader(batch_size=100, docs_per_second=10.0)
        loader.load(cluster, "t", [{"v": i} for i in range(100)])
        times = []
        for shard in cluster.shards.values():
            for doc in shard.collection("t").all_documents():
                times.append(int.from_bytes(doc["_id"].binary[:4], "big"))
        assert max(times) - min(times) >= 5

    def test_transform_applied(self):
        cluster = make_cluster()
        loader = BulkLoader(
            batch_size=10, transform=lambda d: {**d, "extra": 1}
        )
        loader.load(cluster, "t", [{"v": i} for i in range(10)])
        doc = cluster.find("t", {"v": 3}).documents[0]
        assert doc["extra"] == 1

    def test_existing_ids_preserved(self):
        cluster = make_cluster()
        BulkLoader(batch_size=10).load(
            cluster, "t", [{"_id": 99, "v": 1}]
        )
        assert cluster.find("t", {"v": 1}).documents[0]["_id"] == 99

    def test_empty_stream(self):
        cluster = make_cluster()
        assert BulkLoader().load(cluster, "t", []) == 0
