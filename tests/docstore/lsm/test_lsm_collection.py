"""The durable write path at the Collection/Database/service layers.

Covers the PR's integration contract: ``durability=`` mounts the LSM
engine without disturbing the default in-memory behaviour, writes
survive close-and-reopen, storage events carry the collection name up
through the database, a flush leaves the query service's statistics
catalog standing (it is stamped by ``metadata_version`` alone, so the
storage engine cannot change what the chooser sees), and the
storage-size model accounts for tombstones.
"""

import datetime as dt

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.chooser import CostBasedChooser
from repro.core.query import SpatioTemporalQuery
from repro.docstore.collection import Collection
from repro.docstore.database import Database
from repro.docstore.lsm import DurabilityConfig
from repro.docstore.storage import StorageModel, collection_data_size
from repro.errors import DocumentStoreError
from repro.geo.geometry import BoundingBox
from repro.service import QueryService, ServiceConfig


def durable(tmp_path, **overrides):
    defaults = dict(directory=str(tmp_path), compaction=False)
    defaults.update(overrides)
    return DurabilityConfig(**defaults)


class TestCollectionRoundTrip:
    def test_writes_survive_reopen(self, tmp_path):
        config = durable(tmp_path)
        collection = Collection("traces", durability=config)
        ids = collection.insert_many(
            [{"x": i, "tag": "a" if i % 2 else "b"} for i in range(40)]
        )
        collection.delete_many({"tag": "b"})
        collection.update_many({"x": {"$gte": 30}}, {"$set": {"hot": True}})
        collection.close()

        reopened = Collection("traces", durability=config)
        assert len(reopened) == 20
        assert {d["_id"] for d in reopened.find({})} == set(ids[1::2])
        assert len(list(reopened.find({"hot": True}))) == 5
        reopened.close()

    def test_insert_one_and_indexes_after_recovery(self, tmp_path):
        config = durable(tmp_path)
        collection = Collection("traces", durability=config)
        collection.create_index([("x", 1)])
        collection.insert_one({"_id": 1, "x": 10})
        collection.close()

        reopened = Collection("traces", durability=config)
        reopened.create_index([("x", 1)])
        result = reopened.find({"x": 10})
        assert [d["_id"] for d in result] == [1]
        reopened.close()

    def test_duplicate_key_mid_batch_keeps_prefix_durable(self, tmp_path):
        config = durable(tmp_path)
        collection = Collection("traces", durability=config)
        with pytest.raises(DocumentStoreError):
            collection.insert_many(
                [{"_id": 1}, {"_id": 2}, {"_id": 1}, {"_id": 3}]
            )
        collection.close()
        reopened = Collection("traces", durability=config)
        assert {d["_id"] for d in reopened.find({})} == {1, 2}
        reopened.close()

    def test_default_collection_has_no_engine(self):
        collection = Collection("traces")
        collection.insert_one({"x": 1})
        assert collection.engine is None
        assert "durability" not in collection.stats()
        collection.close()  # a no-op, but must exist


class TestDatabaseIntegration:
    def test_events_carry_the_collection_name(self, tmp_path):
        db = Database(
            "fleet",
            durability=durable(tmp_path, memtable_max_bytes=2_000),
        )
        col = db["traces"]
        quiet = db["quiet"]
        col.insert_many([{"x": i, "pad": "p" * 100} for i in range(100)])
        quiet.insert_one({"x": 0})
        assert col.stats()["durability"]["flushes"] > 0, (
            "budget overflow should have flushed"
        )
        assert quiet.stats()["durability"]["flushes"] == 0
        db.close()

    def test_reopen_recovers_every_collection(self, tmp_path):
        db = Database("fleet", durability=durable(tmp_path))
        db["a"].insert_many([{"i": i} for i in range(5)])
        db["b"].insert_many([{"i": i} for i in range(7)])
        db.close()
        reopened = Database("fleet", durability=durable(tmp_path))
        assert len(reopened["a"]) == 5
        assert len(reopened["b"]) == 7
        reopened.close()

    def test_drop_collection_removes_the_files(self, tmp_path):
        db = Database("fleet", durability=durable(tmp_path))
        db["doomed"].insert_one({"x": 1})
        db.drop_collection("doomed")
        assert not (tmp_path / "doomed").exists()
        db.close()


def total_flushes(cluster, name):
    """Memtable flushes summed over every shard's copy of ``name``."""
    return sum(
        shard.database[name].stats()["durability"]["flushes"]
        for shard in cluster.shards.values()
        if name in shard.database.list_collections()
    )


def fleet_docs(start, stop, pad=""):
    """Documents with the shard key, a date and a GeoJSON point."""
    t0 = dt.datetime(2018, 7, 1, tzinfo=dt.timezone.utc)
    return [
        {
            "x": i,
            "date": t0 + dt.timedelta(hours=i),
            "location": {
                "type": "Point",
                "coordinates": [22.0 + 0.01 * i, 38.0 + 0.005 * i],
            },
            "pad": pad,
        }
        for i in range(start, stop)
    ]


class TestServiceCacheEpoch:
    @staticmethod
    def _cluster(durability=None):
        cluster = ShardedCluster(
            topology=ClusterTopology(n_shards=2), durability=durability
        )
        cluster.shard_collection("traces", [("x", 1)], strategy="range")
        cluster.insert_many("traces", fleet_docs(0, 10))
        return cluster

    def test_flush_keeps_statistics_catalog(self, tmp_path):
        cluster = self._cluster(
            DurabilityConfig(
                directory=str(tmp_path),
                memtable_max_bytes=2_000,
                compaction=False,
            )
        )
        flushes = total_flushes(cluster, "traces")
        config = ServiceConfig(max_workers=2)
        with QueryService(cluster, config) as service:
            stats = service.analyze_collection("traces")
            version = cluster.metadata_version
            # Pad documents force memtable overflow -> flush events on
            # every shard, but no split: the stamp still matches, so
            # the catalog entry stands until an explicit re-ANALYZE.
            cluster.insert_many("traces", fleet_docs(10, 60, pad="p" * 200))
            assert total_flushes(cluster, "traces") > flushes
            assert cluster.metadata_version == version
            assert service.collection_stats("traces") is stats
            assert service.stats_catalog.stats()["stale"] == 0
        cluster.close()

    def test_memory_and_durable_catalogs_agree(self, tmp_path):
        """Same inserts plus a forced flush: same catalog, same choice."""
        memory = self._cluster()
        durable_cluster = self._cluster(
            DurabilityConfig(
                directory=str(tmp_path),
                memtable_max_bytes=2_000,
                compaction=False,
            )
        )
        query = SpatioTemporalQuery(
            bbox=BoundingBox(22.0, 38.0, 22.2, 38.1),
            time_from=dt.datetime(2018, 7, 1, tzinfo=dt.timezone.utc),
            time_to=dt.datetime(2018, 7, 2, tzinfo=dt.timezone.utc),
        )
        seen = []
        for cluster in (memory, durable_cluster):
            with QueryService(cluster, ServiceConfig(max_workers=2)) as service:
                service.analyze_collection("traces")
                cluster.insert_many("traces", fleet_docs(10, 60, pad="p" * 200))
                for shard in cluster.shards.values():
                    shard.collection("traces").checkpoint()
                stats = service.collection_stats("traces")
                assert stats is not None
                chooser = CostBasedChooser(
                    lambda: service.collection_stats("traces")
                )
                decision = chooser.choose(query)
                assert decision.used_stats
                assert chooser.fallbacks == 0
                seen.append((stats.as_dict(), decision))
        assert seen[0] == seen[1]
        durable_cluster.close()


class TestStorageSizeAccounting:
    def test_tombstones_add_to_storage_size(self):
        model = StorageModel()
        docs = [{"_id": i, "x": "payload" * 4} for i in range(10)]
        base = model.storage_size(docs)
        with_tombstones = model.storage_size(docs, tombstone_bytes=500)
        assert with_tombstones == base + 500

    def test_storage_size_from_data_is_generator_safe(self):
        model = StorageModel()
        docs = [{"_id": i, "x": "payload" * 4} for i in range(10)]
        data_size = collection_data_size(d for d in docs)
        assert data_size == collection_data_size(docs)
        assert model.storage_size_from_data(
            data_size
        ) == model.storage_size(docs)

    def test_durable_collection_stats_report_tombstones(self, tmp_path):
        config = durable(tmp_path)
        collection = Collection("traces", durability=config)
        collection.insert_many([{"_id": i, "x": "y" * 50} for i in range(20)])
        collection.checkpoint()
        collection.delete_many({"_id": {"$lt": 10}})
        collection.checkpoint()
        stats = collection.stats()
        assert stats["durability"]["tombstoneBytes"] > 0
        assert stats["durability"]["runs"] == 2
        assert stats["storageSize"] > StorageModel().storage_size(
            list(collection.find({}))
        )
        collection.close()
