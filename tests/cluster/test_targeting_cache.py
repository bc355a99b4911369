"""Targeting-cache correctness across routing-metadata changes.

The read path memoizes routing decisions in
:class:`~repro.cluster.router.TargetingCache`.  Cache keys embed the
cluster's ``metadata_version``, so every chunk split, chunk migration,
zone update, and DDL bump retires all prior entries *implicitly*: a
stale cached decision can never be served because its key can never be
looked up again.  These tests pin that contract by forcing each
metadata mutation and asserting the cached answer retargets — and that
the cached path always agrees with the uncached router.
"""

import random

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.cluster.router import (
    TargetingCache,
    shard_key_intervals,
    target_chunks_cached,
    targeting_cache_key,
)
from repro.docstore import bson
from repro.docstore.planner import analyze_query
from repro.reference import reference_cluster_find


def build_cluster(n_shards: int = 4) -> ShardedCluster:
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=n_shards),
        chunk_max_bytes=2 * 1024,
    )
    cluster.shard_collection("t", [("k", 1)])
    rng = random.Random(11)
    cluster.insert_many(
        "t",
        [
            {"_id": i, "k": rng.randrange(0, 10_000), "pad": "x" * 64}
            for i in range(600)
        ],
    )
    return cluster


def cached_targeting(cluster, query):
    return cluster.targeting_for("t", query=query)


def uncached_targeting(cluster, query):
    return cluster.targeting_for("t", query=query, fast_path=False)


class TestVersionKeyedInvalidation:
    def test_cache_key_embeds_metadata_version(self):
        cluster = build_cluster()
        metadata = cluster.catalog.get("t")
        shape = analyze_query({"k": {"$gte": 10, "$lt": 20}})
        intervals = shard_key_intervals(metadata.pattern, shape)
        k1 = targeting_cache_key("t", 1, intervals)
        k2 = targeting_cache_key("t", 2, intervals)
        assert k1 is not None and k2 is not None and k1 != k2

    def test_split_retargets_cached_query(self):
        cluster = build_cluster()
        query = {"k": {"$gte": 0, "$lte": 9_999}}
        before = cached_targeting(cluster, query)
        version_before = cluster.metadata_version
        # Grow one key range until the router must split its chunk.
        cluster.insert_many(
            "t",
            [
                {"_id": 10_000 + i, "k": 5_000, "pad": "y" * 256}
                for i in range(200)
            ],
        )
        assert cluster.metadata_version > version_before
        after = cached_targeting(cluster, query)
        control = uncached_targeting(cluster, query)
        assert after.shard_ids == control.shard_ids
        assert len(after.chunks) == len(control.chunks)
        # The split made strictly more chunks than the cached answer knew.
        assert len(after.chunks) >= len(before.chunks)

    def test_migration_retargets_cached_query(self):
        cluster = build_cluster()
        metadata = cluster.catalog.get("t")
        chunk = metadata.chunks[0]
        query = {"k": {"$gte": 0, "$lt": 50}}  # lands in the first chunk
        before = cached_targeting(cluster, query)
        assert chunk.shard_id in before.shard_ids
        dest = next(
            s for s in cluster.shards if s != chunk.shard_id
        )
        cluster._migrate_chunk(metadata, chunk, dest)
        after = cached_targeting(cluster, query)
        control = uncached_targeting(cluster, query)
        assert after.shard_ids == control.shard_ids
        assert dest in after.shard_ids
        # Same documents either way, and no stale shard consulted.
        fast = cluster.find("t", query)
        slow = reference_cluster_find(cluster, "t", query)
        assert fast.documents == slow.documents
        assert fast.stats.targeted_shards == slow.stats.targeted_shards

    def test_update_zones_retargets_cached_query(self):
        from repro.cluster.zones import Zone

        cluster = build_cluster()
        query = {"k": {"$gte": 0, "$lt": 100}}
        cached_targeting(cluster, query)  # prime the cache
        shards = list(cluster.shards)

        def key(v):
            return (bson.sort_key(v),)

        cluster.update_zones(
            "t",
            [
                Zone("low", key(0), key(5_000), shards[-1]),
                Zone("high", key(5_000), key(10_000), shards[0]),
            ],
        )
        after = cached_targeting(cluster, query)
        control = uncached_targeting(cluster, query)
        assert after.shard_ids == control.shard_ids
        # Zone 'low' pins the queried range to the last shard.
        assert after.shard_ids == [shards[-1]]

    def test_hits_resume_after_invalidation(self):
        cluster = build_cluster()
        query = {"k": {"$gte": 100, "$lt": 200}}
        cached_targeting(cluster, query)
        cached_targeting(cluster, query)
        stats = cluster.targeting_cache.stats()
        assert stats["hits"] >= 1
        cluster._bump_metadata_version()
        cached_targeting(cluster, query)  # miss: version changed
        misses_after_bump = cluster.targeting_cache.stats()["misses"]
        cached_targeting(cluster, query)  # hit again at the new version
        final = cluster.targeting_cache.stats()
        assert final["misses"] == misses_after_bump
        assert final["hits"] >= stats["hits"] + 1


class TestCachedMatchesUncached:
    def test_randomized_ranges_agree(self):
        cluster = build_cluster()
        rng = random.Random(23)
        for _ in range(40):
            lo = rng.randrange(0, 9_000)
            query = {"k": {"$gte": lo, "$lt": lo + rng.randrange(1, 2_000)}}
            fast = cached_targeting(cluster, query)
            slow = uncached_targeting(cluster, query)
            assert fast.shard_ids == slow.shard_ids
            assert fast.broadcast == slow.broadcast

    def test_broadcast_queries_agree(self):
        cluster = build_cluster()
        for query in ({}, {"pad": "x" * 64}):
            fast = cached_targeting(cluster, query)
            slow = uncached_targeting(cluster, query)
            assert fast.broadcast and slow.broadcast
            assert fast.shard_ids == slow.shard_ids


class TestCacheMechanics:
    def test_lru_bound(self):
        cache = TargetingCache(max_entries=4)
        cluster = build_cluster()
        metadata = cluster.catalog.get("t")
        for i in range(10):
            shape = analyze_query({"k": {"$gte": i, "$lt": i + 1}})
            target_chunks_cached(
                metadata, shape, cache, cluster.metadata_version
            )
        stats = cache.stats()
        assert stats["entries"] <= 4
        assert stats["evictions"] >= 6

    def test_unhashable_interval_is_uncacheable(self):
        assert targeting_cache_key("t", 1, None) is not None  # broadcast
