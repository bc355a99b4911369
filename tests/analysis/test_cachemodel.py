"""Unit tests for the cache-coherence model's discovery passes."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cachemodel import build_cache_model

REPO_ROOT = Path(__file__).resolve().parents[2]
STAMPED = "tests/analysis/cache_reconstruction/stamped.py"
STAMP_AFTER_READ = "tests/analysis/cache_reconstruction/stamp_after_read.py"


def build(parse_modules, sources):
    return build_cache_model(parse_modules(sources))


CACHE_SNIPPET = """
    class RouteCache:
        def __init__(self):
            self._entries = {}

        def get(self, key):
            value = self._entries.get(key)
            if value is None:
                return None
            return value

        def put(self, key, value):
            self._entries[key] = value

        def clear(self):
            self._entries.clear()

    class Config:
        def __init__(self):
            self._entries = {}

        def get(self, key):
            return self._entries.get(key)
"""


class TestCacheDiscovery:
    def test_cache_named_class_with_store_read_fill(self, parse_modules):
        model = build(parse_modules, CACHE_SNIPPET)
        assert set(model.caches) == {
            "repro.service.fixture.RouteCache"
        }
        cache = model.caches["repro.service.fixture.RouteCache"]
        assert cache.store_attrs == {"_entries"}
        assert cache.read_methods == {"get"}
        assert cache.fill_methods == {"put"}
        assert cache.invalidate_methods == {"clear"}
        assert not cache.pure_memo
        assert not cache.stamp_validated

    def test_pure_memo_when_one_method_reads_and_fills(
        self, parse_modules
    ):
        model = build(
            parse_modules,
            """
            class MemoCache:
                def __init__(self):
                    self._entries = {}

                def lookup(self, key):
                    value = self._entries.get(key)
                    if value is None:
                        value = expensive(key)
                        self._entries[key] = value
                    return value
            """,
        )
        (cache,) = model.caches.values()
        assert cache.pure_memo

    def test_stamp_validated_read(self, parse_modules):
        model = build(
            parse_modules,
            """
            class StampCache:
                def __init__(self):
                    self._entries = {}
                    self._writes = {}
                    self.threshold = 10

                def get(self, key):
                    entry = self._entries.get(key)
                    if entry is not None:
                        if self._writes.get(key[0], 0) - entry.writes_at >= self.threshold:
                            del self._entries[key]
                            entry = None
                    return entry

                def put(self, key, entry):
                    self._entries[key] = entry
            """,
        )
        (cache,) = model.caches.values()
        assert cache.stamp_validated


TOKEN_SNIPPET = """
    class Topology:
        def __init__(self):
            self.metadata_version = 0
            self.chunk_map = {}
            self.routes = RouteCache()

        def _bump_metadata_version(self):
            self.metadata_version += 1

        def move_chunk(self, chunk_id, shard_id):
            self.chunk_map[chunk_id] = shard_id
            self._bump_metadata_version()

        def route(self, interval, version):
            key = (interval, version)
            cached = self.routes.get(key)
            if cached is not None:
                return cached
            owners = sorted(self.chunk_map)
            self.routes.put(key, owners)
            return owners

    class RouteCache:
        def __init__(self):
            self._entries = {}

        def get(self, key):
            value = self._entries.get(key)
            if value is None:
                return None
            return value

        def put(self, key, value):
            self._entries[key] = value
"""


class TestTokensAndGovernance:
    def test_token_discovered_with_bump_method(self, parse_modules):
        model = build(parse_modules, TOKEN_SNIPPET)
        assert "Topology.metadata_version" in model.tokens
        token = model.tokens["Topology.metadata_version"]
        assert (
            "repro.service.fixture.Topology._bump_metadata_version"
            in token.bump_methods
        )

    def test_governed_fields_are_the_intersection(self, parse_modules):
        model = build(parse_modules, TOKEN_SNIPPET)
        token = model.tokens["Topology.metadata_version"]
        # chunk_map: read on the fill path AND mutated bump-adjacent.
        assert token.governed_fields == {"chunk_map"}
        assert model.governing_tokens["chunk_map"] == {
            "Topology.metadata_version"
        }

    def test_bump_call_collapses_to_bump_effect(self, parse_modules):
        model = build(parse_modules, TOKEN_SNIPPET)
        summary = model.summaries[
            "repro.service.fixture.Topology.move_chunk"
        ]
        kinds = [e.kind for e in summary.effects]
        assert "bump" in kinds  # the call, not a call marker
        bump = next(e for e in summary.effects if e.kind == "bump")
        assert bump.detail == "Topology.metadata_version"

    def test_keyed_read_via_version_param_tuple(self, parse_modules):
        model = build(parse_modules, TOKEN_SNIPPET)
        summary = model.summaries[
            "repro.service.fixture.Topology.route"
        ]
        read = next(e for e in summary.effects if e.kind == "read")
        assert read.keyed
        assert read.key_source == "param"


class TestInlining:
    def test_callee_effects_splice_at_call_site(self, parse_modules):
        model = build(parse_modules, TOKEN_SNIPPET)
        inlined = model.inlined_effects(
            "repro.service.fixture.Topology.move_chunk"
        )
        bumps = [e for e in inlined if e.kind == "bump"]
        assert bumps, "bump must stay visible in the inlined view"
        mutate = next(e for e in inlined if e.kind == "mutate")
        assert mutate.target == "chunk_map"
        # The mutation precedes the bump in source order.
        assert inlined.index(mutate) < inlined.index(bumps[0])


class TestShippedModel:
    """Anchor the discovery results on the real tree and the primitive."""

    def test_shipped_caches_tokens_and_governance(self, shipped, parse_modules):
        _findings, context = shipped
        model = context.cache_model
        # Every read routes from the live chunk map: no cache class on
        # the read path (the one discovered "cache" is the epoch
        # tracer's bookkeeping), and the routing token governs nothing
        # a cache reads.
        read_path = ("repro.cluster.", "repro.docstore.", "repro.service.")
        assert not [s for s in model.caches if s.startswith(read_path)]
        assert "StampedLRUCache" not in {c.name for c in model.caches.values()}
        assert "ShardedCluster.metadata_version" in model.tokens
        assert not model.tokens["ShardedCluster.metadata_version"].governed_fields
        assert "LSMEngine._storage_epoch" not in model.tokens
        # The stamped primitive, beside the fixture that routes through it.
        fixture_model = build(
            parse_modules,
            {
                path: (REPO_ROOT / path).read_text(encoding="utf-8")
                for path in (STAMPED, STAMP_AFTER_READ)
            },
        )
        primitive = fixture_model.caches[
            "tests.analysis.cache_reconstruction.stamped.StampedLRUCache"
        ]
        assert primitive.read_methods == {"get"}
        assert primitive.fill_methods == {"put"}
        assert primitive.stamp_validated
        ops = {
            (summary.info.qual, effect.kind, effect.keyed)
            for summary in fixture_model.summaries.values()
            for effect in summary.effects
            if effect.target == "StampedLRUCache"
        }
        assert ("Topology.route", "read", True) in ops
        assert ("Topology.route", "fill", True) in ops
        token = fixture_model.tokens["Topology.metadata_version"]
        assert token.governed_fields == {"chunk_map"}
