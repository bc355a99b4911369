"""Routing after a routing-metadata change: the next read sees it.

Every read routes from the live chunk map — there is no memo of
routing decisions to invalidate — so after a chunk split, a chunk
migration or a zone update the very next ``targeting_for`` must
target the new chunk map.  Each test forces one mutation and checks
the decision against :func:`~repro.reference.reference_target_chunks`,
which tests every chunk instead of bisecting.
"""

import random

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.docstore import bson
from repro.docstore.planner import analyze_query
from repro.reference import reference_cluster_find, reference_target_chunks


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


def targeting(cluster, query):
    return cluster.targeting_for("t", query=query)


def control(cluster, query):
    """Every chunk tested against the live chunk map."""
    return reference_target_chunks(
        cluster.catalog.get("t"), analyze_query(query)
    )


class TestVersionKeyedInvalidation:
    def test_split_retargets_cached_query(self):
        cluster = build_cluster()
        query = {"k": {"$gte": 0, "$lte": 9_999}}
        before = targeting(cluster, query)
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
        after = targeting(cluster, query)
        expected = control(cluster, query)
        assert after.shard_ids == expected.shard_ids
        assert len(after.chunks) == len(expected.chunks)
        # The split made strictly more chunks than the earlier read saw.
        assert len(after.chunks) > len(before.chunks)

    def test_migration_retargets_cached_query(self):
        cluster = build_cluster()
        metadata = cluster.catalog.get("t")
        chunk = metadata.chunks[0]
        query = {"k": {"$gte": 0, "$lt": 50}}  # lands in the first chunk
        before = targeting(cluster, query)
        assert chunk.shard_id in before.shard_ids
        dest = next(
            s for s in cluster.shards if s != chunk.shard_id
        )
        cluster._migrate_chunk(metadata, chunk, dest)
        after = targeting(cluster, query)
        assert after.shard_ids == control(cluster, query).shard_ids
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
        targeting(cluster, query)  # a read before the zone update
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
        after = targeting(cluster, query)
        assert after.shard_ids == control(cluster, query).shard_ids
        # Zone 'low' pins the queried range to the last shard.
        assert after.shard_ids == [shards[-1]]
