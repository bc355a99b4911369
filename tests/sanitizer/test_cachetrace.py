"""Mechanics of the cache epoch tracer.

The reconstruction suite (``tests/analysis/test_cache_reconstruction``)
proves the tracer catches the three CC bug classes end to end; this
module pins the primitives those tests lean on — the generation
vector, fill stamps, derivation-time snapshots, hit rechecks — and
smoke-tests the shipped-cache instrumentation hooks.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.cluster.router import target_chunks_cached
from repro.docstore.planner import analyze_query
from repro.sanitizer import CacheTracer, instrument_targeting_cache
from repro.service.service import QueryService


class TestGenerationVector:
    def test_advance_is_per_domain_and_monotonic(self):
        tracer = CacheTracer()
        assert tracer.generation("metadata") == 0
        assert tracer.advance("metadata") == 1
        assert tracer.advance("metadata") == 2
        assert tracer.generation("metadata") == 2
        assert tracer.generation("ddl:t") == 0

    def test_snapshot_is_a_frozen_copy(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        snap = tracer.snapshot()
        tracer.advance("metadata")
        assert snap == {"metadata": 1}
        assert tracer.generation("metadata") == 2


class TestFillsAndHits:
    def test_fresh_hit_is_clean(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        tracer.record_fill("c", "k", ("metadata",))
        assert not tracer.check_hit("c", "k", ("metadata",))
        tracer.assert_clean()

    def test_hit_after_advance_is_stale(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.advance("metadata")
        assert tracer.check_hit("c", "k", ("metadata",))
        (violation,) = tracer.violations()
        assert violation.kind == "stale-hit"
        assert violation.family == "CC003"
        assert "filled@0 current@1" in violation.detail

    def test_family_is_caller_supplied(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.advance("metadata")
        tracer.check_hit("c", "k", ("metadata",), family="CC002")
        (violation,) = tracer.violations()
        assert violation.family == "CC002"

    def test_only_declared_domains_are_checked(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("ddl:t",))
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "k", ("ddl:t",))

    def test_derivation_snapshot_backdates_the_stamp(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        snap = tracer.snapshot()
        # The mutation lands between derivation and fill; a fill-time
        # stamp would hide it, the snapshot stamp exposes it.
        tracer.advance("metadata")
        tracer.record_fill("c", "k", ("metadata",), at=snap)
        assert tracer.check_hit("c", "k", ("metadata",), family="CC002")

    def test_unknown_entries_are_skipped(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "never-filled", ("metadata",))
        tracer.assert_clean()

    def test_forget_drops_the_stamp(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.forget("c", "k")
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "k", ("metadata",))

    def test_assert_clean_raises_with_every_violation(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k1", ("metadata",))
        tracer.record_fill("c", "k2", ("metadata",))
        tracer.advance("metadata")
        tracer.check_hit("c", "k1", ("metadata",))
        tracer.check_hit("c", "k2", ("metadata",))
        with pytest.raises(AssertionError, match="2 stale hit"):
            tracer.assert_clean()


@pytest.fixture
def service():
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=2), chunk_max_bytes=4 * 1024
    )
    cluster.shard_collection("t", [("k", 1)])
    with QueryService(cluster) as svc:
        yield svc


class TestInstrumentation:
    def test_targeting_cache_fills_and_rechecks(self, service):
        tracer = instrument_targeting_cache(service.cluster, CacheTracer())
        service.insert_many(
            "t", [{"_id": i, "k": i} for i in range(20)]
        )
        service.find("t", {"k": {"$gte": 0, "$lt": 10}})
        service.find("t", {"k": {"$gte": 0, "$lt": 10}})
        assert service.cluster.targeting_cache.stats()["hits"] > 0
        tracer.assert_clean()

    def test_targeting_bump_advances_metadata_domain(self, service):
        tracer = instrument_targeting_cache(service.cluster, CacheTracer())
        before = tracer.generation("metadata")
        service.cluster._bump_metadata_version()
        assert tracer.generation("metadata") == before + 1

    def test_targeting_roundtrip_is_clean(self, service):
        """A DDL bump makes the next lookup stale; the re-lookup refills."""
        tracer = instrument_targeting_cache(service.cluster, CacheTracer())
        cache = service.cluster.targeting_cache
        service.insert_many(
            "t", [{"_id": i, "k": i, "v": i % 3} for i in range(20)]
        )
        query = {"k": {"$gte": 0, "$lt": 10}}
        service.find("t", query)
        service.find("t", query)
        assert cache.stats()["hits"] == 1
        before = tracer.generation("metadata")
        service.create_index("t", [("v", 1)], name="v_idx")
        assert tracer.generation("metadata") > before
        service.find("t", query)
        assert cache.stats()["stale"] == 1  # stamp moved
        service.find("t", query)
        assert cache.stats()["hits"] == 2
        tracer.assert_clean()

    def test_broken_invalidation_would_be_caught(self, service):
        """Look up targeting with a stale version stamp: the tracer trips.

        This is the tracer's reason to exist — it advances the domain
        inside the metadata bump, independently of the cache's own
        stamp check, so a reader that validates against the version it
        remembered (not the live one) turns the next hit stale.
        """
        tracer = instrument_targeting_cache(service.cluster, CacheTracer())
        service.insert_many(
            "t", [{"_id": i, "k": i, "v": i % 3} for i in range(20)]
        )
        query = {"k": {"$gte": 0, "$lt": 10}}
        service.find("t", query)
        remembered = service.cluster.metadata_version
        service.create_index("t", [("v", 1)], name="v_idx")
        target_chunks_cached(
            service.cluster.catalog.get("t"),
            analyze_query(query),
            service.cluster.targeting_cache,
            remembered,
        )
        assert tracer.violations(), "stale stamp check must surface"
        assert {v.family for v in tracer.violations()} == {"CC003"}
