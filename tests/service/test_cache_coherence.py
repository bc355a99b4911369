"""Cache coherence of the live service, checked by the epoch tracer.

Drive the targeting memo through interleaved chunk splits and zone
updates, with the autouse ``cache_epoch_tracer`` fixture
(tests/service/conftest.py) recording every fill and hit.
Correctness here means two things at once: answers stay right, and
the tracer's teardown ``assert_clean`` finds no hit whose fill
predates a governing mutation.
"""

from __future__ import annotations

from repro.docstore import bson
from repro.cluster.zones import Zone
from repro.service.service import QueryService


def mid_key(value):
    return (bson.sort_key(value),)


class TestTargetingUnderInterleavedMutations:
    def test_split_and_zone_updates_between_reads(
        self, seeded_cluster, cache_epoch_tracer
    ):
        """Interleave range reads with splits and two zone layouts.

        Every metadata mutation bumps ``metadata_version``; because
        targeting entries are stamped with the version, each
        post-mutation read must miss as stale, retarget, and refill —
        never hit a pre-mutation entry.
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
                # Warm the cache at the current version...
                for _ in range(2):
                    got = sorted(
                        d["_id"] for d in service.find("t", query)
                    )
                    assert got == expected
                # ...then mutate the routing metadata underneath it.
                cluster.update_zones("t", layout)
                got = sorted(d["_id"] for d in service.find("t", query))
                assert got == expected
            # Writes force chunk splits (chunk_max_bytes is tiny),
            # interleaved with reads that would be wrong if targeting
            # served a pre-split routing decision.
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
                got = service.find(
                    "t", {"k": {"$gte": 3_000, "$lt": 3_500}}
                )
                by_id = {d["_id"] for d in got}
                assert all(
                    10_000 + 100 * n in by_id for n in range(i + 1)
                )
            assert len(versions) > 1, "splits must bump the version"
        # Teardown: cache_epoch_tracer.assert_clean() is the verdict.

    def test_cache_serves_hits_between_mutations(
        self, seeded_cluster, cache_epoch_tracer
    ):
        """The point of the cache: repeats at a stable version hit."""
        cluster = seeded_cluster
        with QueryService(cluster) as service:
            for _ in range(4):
                service.find("t", {"k": {"$gte": 0, "$lt": 2_000}})
            stats = cluster.targeting_cache.stats()
            assert stats["hits"] >= 3


class TestOneCounterVocabulary:
    def test_every_cache_reports_the_same_counters(self, seeded_cluster):
        """The targeting memo and the all-zero range key: one vocabulary."""
        with QueryService(seeded_cluster) as service:
            service.find("t", {"k": {"$gte": 0, "$lt": 2_000}})
            service.find("t", {"k": {"$gte": 0, "$lt": 2_000}})
            caches = service.metrics_snapshot().caches
        assert set(caches) == {"targeting", "rangeDecomposition"}
        for counters in caches.values():
            assert set(counters) == {
                "entries",
                "hits",
                "misses",
                "stale",
                "evictions",
            }
            assert counters["stale"] <= counters["misses"]
        assert caches["targeting"]["hits"] == 1
