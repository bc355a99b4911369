"""Tests for the balancer in isolation (with a scripted migrate fn)."""

import pytest

from repro.cluster.balancer import Balancer
from repro.cluster.catalog import CollectionMetadata
from repro.cluster.chunk import Chunk, ShardKeyPattern
from repro.cluster.zones import Zone, ZoneSet
from repro.docstore import bson


def key(v):
    return (bson.sort_key(v),)


def build_meta(assignments):
    """assignments: list of (lo, hi, shard) over integer h values."""
    pattern = ShardKeyPattern.from_spec([("h", 1)])
    meta = CollectionMetadata(
        name="t", pattern=pattern, strategy="range", chunk_max_bytes=1024
    )
    for i, (lo, hi, shard) in enumerate(assignments):
        min_key = pattern.global_min() if lo is None else key(lo)
        max_key = pattern.global_max() if hi is None else key(hi)
        meta.chunks.append(
            Chunk(min_key=min_key, max_key=max_key, shard_id=shard)
        )
    return meta


def recording_migrate(log):
    def migrate(metadata, chunk, dest):
        log.append((chunk.min_key, chunk.shard_id, dest))
        chunk.shard_id = dest

    return migrate


class TestEvenOut:
    def test_already_balanced_no_moves(self):
        meta = build_meta(
            [(None, 10, "s0"), (10, 20, "s1"), (20, None, "s0")]
        )
        log = []
        balancer = Balancer(["s0", "s1"], recording_migrate(log))
        moved = balancer.balance(meta)
        assert moved == 0

    def test_evens_out_counts(self):
        meta = build_meta(
            [
                (None, 10, "s0"),
                (10, 20, "s0"),
                (20, 30, "s0"),
                (30, 40, "s0"),
                (40, None, "s0"),
            ]
        )
        log = []
        balancer = Balancer(["s0", "s1", "s2"], recording_migrate(log))
        balancer.balance(meta)
        counts = meta.chunk_counts()
        full = {s: counts.get(s, 0) for s in ("s0", "s1", "s2")}
        assert max(full.values()) - min(full.values()) <= 1

    def test_empty_shards_receive_chunks(self):
        meta = build_meta([(None, 10, "s0"), (10, None, "s0")])
        log = []
        balancer = Balancer(["s0", "s1"], recording_migrate(log))
        balancer.balance(meta)
        assert meta.chunk_counts().get("s1", 0) == 1

    def test_requires_shards(self):
        with pytest.raises(ValueError):
            Balancer([], lambda *a: None)


class TestZoneEnforcement:
    def test_chunks_move_to_zone_owner(self):
        meta = build_meta(
            [(None, 10, "s1"), (10, 20, "s1"), (20, None, "s0")]
        )
        pattern = meta.pattern
        meta.zone_set = ZoneSet(
            [
                Zone("a", pattern.global_min(), key(20), "s0"),
                Zone("b", key(20), pattern.global_max(), "s1"),
            ]
        )
        log = []
        balancer = Balancer(["s0", "s1"], recording_migrate(log))
        balancer.balance(meta)
        assert meta.chunks[0].shard_id == "s0"
        assert meta.chunks[1].shard_id == "s0"
        assert meta.chunks[2].shard_id == "s1"

    def test_zoned_chunks_never_leave_zone(self):
        # s0 owns everything via one zone: evening-out must not migrate
        # zoned chunks to s1 even though counts are lopsided.
        meta = build_meta(
            [(None, 10, "s0"), (10, 20, "s0"), (20, 30, "s0"), (30, None, "s0")]
        )
        pattern = meta.pattern
        meta.zone_set = ZoneSet(
            [Zone("all", pattern.global_min(), pattern.global_max(), "s0")]
        )
        log = []
        balancer = Balancer(["s0", "s1"], recording_migrate(log))
        balancer.balance(meta)
        assert all(c.shard_id == "s0" for c in meta.chunks)

    def test_unzoned_chunks_still_balanced(self):
        # Zone covers only [0, 10); the rest should spread normally.
        meta = build_meta(
            [
                (None, 0, "s0"),
                (0, 10, "s0"),
                (10, 20, "s0"),
                (20, 30, "s0"),
                (30, None, "s0"),
            ]
        )
        pattern = meta.pattern
        meta.zone_set = ZoneSet([Zone("z", key(0), key(10), "s0")])
        log = []
        balancer = Balancer(["s0", "s1"], recording_migrate(log))
        balancer.balance(meta)
        counts = meta.chunk_counts()
        assert counts.get("s1", 0) >= 2
        # The zoned chunk stayed.
        zoned = [c for c in meta.chunks if c.min_key == key(0)][0]
        assert zoned.shard_id == "s0"


class TestMoves:
    """``moves`` decides; the consumer applies (data or label)."""

    def layout(self):
        meta = build_meta(
            [
                (None, 0, "s0"),
                (0, 10, "s0"),
                (10, 20, "s0"),
                (20, 30, "s0"),
                (30, None, "s0"),
            ]
        )
        meta.zone_set = ZoneSet([Zone("z", key(0), key(10), "s1")])
        return meta

    def test_relabelling_reaches_what_balance_migrates(self):
        migrated = self.layout()
        log = []
        moved = Balancer(["s0", "s1", "s2"], recording_migrate(log)).balance(
            migrated
        )

        def never(*_args):
            raise AssertionError("moves must not migrate")

        planned = self.layout()
        decisions = []
        for chunk, dest in Balancer(["s0", "s1", "s2"], never).moves(planned):
            decisions.append((chunk.min_key, chunk.shard_id, dest))
            chunk.shard_id = dest
        assert decisions == log and len(log) == moved > 0
        assert [c.shard_id for c in planned.chunks] == [
            c.shard_id for c in migrated.chunks
        ]
