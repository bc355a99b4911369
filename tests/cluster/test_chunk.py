"""Tests for shard keys and chunks."""

import datetime as dt

import pytest

from repro.cluster.chunk import Chunk, ShardKeyPattern
from repro.docstore import bson
from repro.docstore.index import hashed_value
from repro.errors import ShardingError

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


class TestShardKeyPattern:
    def test_from_spec(self):
        p = ShardKeyPattern.from_spec([("hilbertIndex", 1), ("date", 1)])
        assert p.paths == ("hilbertIndex", "date")
        assert len(p) == 2
        assert p.fields == (("hilbertIndex", 1), ("date", 1))

    def test_hashed_pattern(self):
        p = ShardKeyPattern.from_spec([("vehicle", "hashed")])
        assert p.fields == (("vehicle", "hashed"),)

    def test_rejects_empty(self):
        with pytest.raises(ShardingError):
            ShardKeyPattern(fields=())

    def test_rejects_bad_kind(self):
        with pytest.raises(ShardingError):
            ShardKeyPattern.from_spec([("a", "2dsphere")])

    def test_extract_raw(self):
        p = ShardKeyPattern.from_spec([("h", 1), ("date", 1)])
        doc = {"h": 42, "date": T0}
        assert p.extract_raw(doc) == (42, T0)

    def test_extract_missing_is_null(self):
        p = ShardKeyPattern.from_spec([("h", 1)])
        assert p.extract_raw({}) == (None,)

    def test_extract_hashed(self):
        p = ShardKeyPattern.from_spec([("v", "hashed")])
        assert p.extract_raw({"v": 7}) == (hashed_value(7),)

    def test_extract_canonical_orders_like_bson(self):
        p = ShardKeyPattern.from_spec([("h", 1), ("date", 1)])
        a = p.extract_canonical({"h": 1, "date": T0})
        b = p.extract_canonical({"h": 1, "date": T0 + dt.timedelta(days=1)})
        c = p.extract_canonical({"h": 2, "date": T0})
        assert a < b < c

    def test_global_bounds(self):
        p = ShardKeyPattern.from_spec([("h", 1), ("date", 1)])
        gmin, gmax = p.global_min(), p.global_max()
        key = p.extract_canonical({"h": 5, "date": T0})
        assert gmin < key < gmax

    def test_dotted_path_keys(self):
        p = ShardKeyPattern.from_spec([("a.b", 1)])
        assert p.extract_raw({"a": {"b": 3}}) == (3,)


class TestChunk:
    def _chunk(self, lo, hi):
        p = ShardKeyPattern.from_spec([("h", 1)])
        return Chunk(
            min_key=(bson.sort_key(lo),),
            max_key=(bson.sort_key(hi),),
            shard_id="shard00",
        )

    def test_contains_half_open(self):
        p = ShardKeyPattern.from_spec([("h", 1)])
        chunk = self._chunk(10, 20)
        assert chunk.contains(p.extract_canonical({"h": 10}))
        assert chunk.contains(p.extract_canonical({"h": 19}))
        assert not chunk.contains(p.extract_canonical({"h": 20}))
        assert not chunk.contains(p.extract_canonical({"h": 9}))

    def test_rejects_empty_range(self):
        with pytest.raises(ShardingError):
            self._chunk(10, 10)

    def test_describe(self):
        chunk = self._chunk(0, 5)
        d = chunk.describe()
        assert d["shard"] == "shard00"
        assert d["jumbo"] is False
