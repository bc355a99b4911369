"""Tests for the config catalog and chunk map surgery."""

import pytest

from repro.cluster.catalog import CollectionMetadata, ConfigCatalog
from repro.cluster.chunk import Chunk, ShardKeyPattern
from repro.docstore import bson
from repro.errors import ShardingError


def make_metadata(boundaries=(10, 20, 30)):
    """A metadata with chunks split at the given h values."""
    pattern = ShardKeyPattern.from_spec([("h", 1)])
    meta = CollectionMetadata(
        name="t", pattern=pattern, strategy="range", chunk_max_bytes=1024
    )
    edges = (
        [pattern.global_min()]
        + [(bson.sort_key(b),) for b in boundaries]
        + [pattern.global_max()]
    )
    shards = ["shard%02d" % (i % 3) for i in range(len(edges) - 1)]
    for lo, hi, shard in zip(edges, edges[1:], shards):
        meta.chunks.append(Chunk(min_key=lo, max_key=hi, shard_id=shard))
    return meta, pattern


class TestLookup:
    def test_chunk_for_key(self):
        meta, pattern = make_metadata()
        key = pattern.extract_canonical({"h": 15})
        chunk = meta.chunk_for_key(key)
        assert chunk.contains(key)

    def test_extremes_covered(self):
        meta, pattern = make_metadata()
        for h in (-(10**9), 0, 10**9):
            key = pattern.extract_canonical({"h": h})
            assert meta.chunk_for_key(key).contains(key)

    def test_boundary_key_goes_right(self):
        meta, pattern = make_metadata()
        key = pattern.extract_canonical({"h": 20})
        chunk = meta.chunk_for_key(key)
        assert chunk.min_key == key


class TestSplit:
    def test_split_preserves_tiling(self):
        meta, pattern = make_metadata()
        chunk = meta.chunk_for_key(pattern.extract_canonical({"h": 15}))
        split_key = pattern.extract_canonical({"h": 15})
        left, right = meta.split_chunk(chunk, split_key)
        assert left.max_key == right.min_key == split_key
        meta.validate()

    def test_split_keeps_shard(self):
        meta, pattern = make_metadata()
        chunk = meta.chunk_for_key(pattern.extract_canonical({"h": 15}))
        owner = chunk.shard_id
        left, right = meta.split_chunk(
            chunk, pattern.extract_canonical({"h": 15})
        )
        assert left.shard_id == right.shard_id == owner

    def test_split_outside_range_rejected(self):
        meta, pattern = make_metadata()
        chunk = meta.chunk_for_key(pattern.extract_canonical({"h": 15}))
        with pytest.raises(ShardingError):
            meta.split_chunk(chunk, pattern.extract_canonical({"h": 25}))

    def test_split_at_min_rejected(self):
        meta, pattern = make_metadata()
        chunk = meta.chunk_for_key(pattern.extract_canonical({"h": 15}))
        with pytest.raises(ShardingError):
            meta.split_chunk(chunk, chunk.min_key)

    def test_mark_jumbo(self):
        meta, pattern = make_metadata()
        chunk = meta.chunks[0]
        meta.mark_jumbo(chunk)
        assert chunk.jumbo


class TestViews:
    def test_chunk_counts(self):
        meta, _ = make_metadata()
        counts = meta.chunk_counts()
        assert sum(counts.values()) == 4

    def test_chunks_on_shard(self):
        meta, _ = make_metadata()
        assert len(meta.chunks_on_shard("shard00")) == 2

    def test_shards_used_sorted(self):
        meta, _ = make_metadata()
        assert meta.shards_used() == ["shard00", "shard01", "shard02"]

    def test_validate_detects_gap(self):
        meta, _ = make_metadata()
        del meta.chunks[1]
        with pytest.raises(ShardingError):
            meta.validate()

    def test_strategy_validated(self):
        pattern = ShardKeyPattern.from_spec([("h", 1)])
        with pytest.raises(ShardingError):
            CollectionMetadata(
                name="t", pattern=pattern, strategy="weird", chunk_max_bytes=1
            )


class TestConfigCatalog:
    def test_add_and_get(self):
        catalog = ConfigCatalog()
        meta, _ = make_metadata()
        catalog.add_collection(meta)
        assert catalog.get("t") is meta
        assert "t" in catalog

    def test_duplicate_rejected(self):
        catalog = ConfigCatalog()
        meta, _ = make_metadata()
        catalog.add_collection(meta)
        with pytest.raises(ShardingError):
            catalog.add_collection(meta)

    def test_missing_rejected(self):
        with pytest.raises(ShardingError):
            ConfigCatalog().get("nope")
