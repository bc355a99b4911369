"""Targeting-cache correctness across routing-metadata changes.

The read path memoizes routing decisions in a
:class:`~repro.cache.StampedLRUCache` keyed by (collection, interval
box) and stamped with the cluster's ``metadata_version``, so every
chunk split, chunk migration, zone update, and DDL bump makes the next
lookup a stale miss: a stale cached decision can never be served, and
its refill replaces the entry in place.  These tests pin that contract
by forcing each metadata mutation and asserting the cached answer
retargets — and that the cached path always agrees with the uncached
router.
"""

import random

from repro.cache import StampedLRUCache
from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.cluster.router import (
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
        """The version travels with the entry, as its stamp.

        One key per interval box; a lookup under any other version is
        a stale miss, never the decision derived under the old one.
        """
        cluster = build_cluster()
        metadata = cluster.catalog.get("t")
        shape = analyze_query({"k": {"$gte": 10, "$lt": 20}})
        key = targeting_cache_key(
            "t", shard_key_intervals(metadata.pattern, shape)
        )
        cache = StampedLRUCache()
        decided = target_chunks_cached(metadata, shape, cache, 1)
        assert cache.get(key, stamp=1) is decided
        assert cache.get(key, stamp=2) is None
        assert cache.stats()["stale"] == 1

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
        cache = StampedLRUCache(max_entries=4)
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
        assert targeting_cache_key("t", None) is not None  # broadcast


def record_lookups(cache):
    """Wrap ``cache.get`` to log every ``(key, stamp)`` it is asked for."""
    lookups = []
    orig_get = cache.get

    def get(key, stamp=None):
        lookups.append((key, stamp))
        return orig_get(key, stamp)

    cache.get = get
    return lookups


class TestTargetingUnderChurn:
    QUERY = {"k": {"$gte": 100, "$lt": 900}}

    def test_repeated_query_across_bumps_leaves_one_entry(self):
        cluster = build_cluster()
        assert cluster.targeting_cache.stats()["entries"] == 0
        for _ in range(5):
            cached_targeting(cluster, self.QUERY)
            cluster._bump_metadata_version()
        cached_targeting(cluster, self.QUERY)
        # Version-in-key would strand one entry per dead version (6).
        assert cluster.targeting_cache.stats()["entries"] == 1

    def test_post_bump_lookup_is_one_stale_miss_then_hits(self):
        cluster = build_cluster()
        cached_targeting(cluster, self.QUERY)
        for _ in range(3):
            before = cluster.targeting_cache.stats()
            cluster._bump_metadata_version()
            cached_targeting(cluster, self.QUERY)
            after_bump = cluster.targeting_cache.stats()
            assert after_bump["stale"] == before["stale"] + 1
            assert after_bump["misses"] == before["misses"] + 1
            assert after_bump["hits"] == before["hits"]
            cached_targeting(cluster, self.QUERY)
            final = cluster.targeting_cache.stats()
            assert final["hits"] == before["hits"] + 1
            assert final["misses"] == after_bump["misses"]

    def test_hits_equal_the_version_in_key_scheme(self):
        """Seeded splits, inserts and reads; a small bound forces evictions.

        Replaying the recorded lookups through an LRU of the same
        bound keyed by ``(key, version)`` — the scheme the stamp
        replaced — must give the same hits: an entry at the current
        version is only ever evicted behind more recently used entries
        of that same version, under either scheme.
        """
        cluster = build_cluster()
        cluster.targeting_cache = StampedLRUCache(max_entries=8)
        lookups = record_lookups(cluster.targeting_cache)
        rng = random.Random(31)
        boxes = [rng.randrange(0, 9_000) for _ in range(12)]
        next_id = 50_000
        for _ in range(30):
            if rng.random() < 0.3:
                k = rng.randrange(0, 10_000)
                cluster.insert_many(
                    "t",
                    [
                        {"_id": next_id + j, "k": k, "pad": "z" * 256}
                        for j in range(20)
                    ],
                )
                next_id += 20
            for _ in range(6):
                lo = rng.choice(boxes)
                query = {"k": {"$gte": lo, "$lt": lo + 500}}
                assert (
                    cached_targeting(cluster, query).shard_ids
                    == uncached_targeting(cluster, query).shard_ids
                )
        versions = {stamp for _, stamp in lookups}
        assert len(versions) > 3, "the interleaving must bump the version"
        keyed = StampedLRUCache(max_entries=8)
        for key, stamp in lookups:
            if keyed.get((key, stamp)) is None:
                keyed.put((key, stamp), True)
        stamped = cluster.targeting_cache.stats()
        assert stamped["evictions"] > 0
        assert stamped["stale"] > 0
        assert keyed.stats()["hits"] == stamped["hits"]
        assert keyed.stats()["misses"] == stamped["misses"]
