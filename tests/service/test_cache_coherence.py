"""Routing coherence of the live service across metadata changes.

The service routes every read from the live chunk map, under its lock;
nothing memoizes a routing decision.  Interleave reads with chunk
splits and zone updates and check two things after each mutation: the
answer stays right, and the read visited exactly the shards the
current chunk map names (:func:`~repro.reference.reference_target_chunks`,
which tests every chunk).
"""

from __future__ import annotations

from repro.cluster.zones import Zone
from repro.docstore import bson
from repro.docstore.planner import analyze_query
from repro.reference import reference_target_chunks
from repro.service.service import QueryService


def mid_key(value):
    return (bson.sort_key(value),)


def current_shards(cluster, query):
    """The shards the live chunk map routes ``query`` to."""
    return reference_target_chunks(
        cluster.catalog.get("t"), analyze_query(query)
    ).shard_ids


class TestTargetingUnderInterleavedMutations:
    def test_split_and_zone_updates_between_reads(self, seeded_cluster):
        """Interleave range reads with splits and two zone layouts.

        Every metadata mutation bumps ``metadata_version``; each
        post-mutation read must route by the new chunk map — same
        documents, and the shards that map names, never the ones an
        earlier read visited.
        """
        cluster = seeded_cluster
        query = {"k": {"$gte": 100, "$lt": 7_000}}
        with QueryService(cluster) as service:
            expected = sorted(
                d["_id"] for d in service.find("t", query)
            )
            pattern = cluster.catalog.get("t").pattern
            shard_ids = sorted(cluster.shards)
            layouts = [
                [
                    Zone("a", pattern.global_min(), mid_key(3000), shard_ids[0]),
                    Zone("b", mid_key(3000), pattern.global_max(), shard_ids[1]),
                ],
                [
                    Zone("a", pattern.global_min(), mid_key(5500), shard_ids[2]),
                    Zone("b", mid_key(5500), pattern.global_max(), shard_ids[3]),
                ],
            ]
            for layout in layouts:
                # Reads at the current version...
                for _ in range(2):
                    got = sorted(
                        d["_id"] for d in service.find("t", query)
                    )
                    assert got == expected
                # ...then mutate the routing metadata between reads.
                cluster.update_zones("t", layout)
                result = service.find("t", query)
                assert sorted(d["_id"] for d in result) == expected
                assert result.stats.targeted_shards == current_shards(
                    cluster, query
                )
                assert result.stats.targeted_shards == sorted(
                    zone.shard_id for zone in layout
                )
            # Writes force chunk splits (chunk_max_bytes is tiny),
            # interleaved with reads that would be wrong if targeting
            # used a pre-split routing decision.
            versions = {cluster.metadata_version}
            for i in range(3):
                service.insert_many(
                    "t",
                    [
                        {
                            "_id": 10_000 + 100 * i + j,
                            "k": 3_000 + 10 * j,
                            "group": j % 10,
                            "counter": 0,
                            "pad": "x" * 512,
                        }
                        for j in range(100)
                    ],
                )
                versions.add(cluster.metadata_version)
                split_query = {"k": {"$gte": 3_000, "$lt": 3_500}}
                got = service.find("t", split_query)
                by_id = {d["_id"] for d in got}
                assert all(
                    10_000 + 100 * n in by_id for n in range(i + 1)
                )
                assert got.stats.targeted_shards == current_shards(
                    cluster, split_query
                )
            assert len(versions) > 1, "splits must bump the version"


class TestOneCounterVocabulary:
    def test_every_cache_reports_the_same_counters(self, seeded_cluster):
        """Two all-zero entries in one vocabulary: nothing is memoized."""
        with QueryService(seeded_cluster) as service:
            service.find("t", {"k": {"$gte": 0, "$lt": 2_000}})
            service.find("t", {"k": {"$gte": 0, "$lt": 2_000}})
            caches = service.metrics_snapshot().caches
        assert set(caches) == {"targeting", "rangeDecomposition"}
        for counters in caches.values():
            assert counters == {
                "entries": 0,
                "hits": 0,
                "misses": 0,
                "stale": 0,
                "evictions": 0,
            }
