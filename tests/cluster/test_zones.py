"""Tests for zone definitions."""

import pytest

from repro.cluster.zones import Zone, ZoneSet
from repro.docstore import bson
from repro.errors import ZoneError


def key(v):
    return (bson.sort_key(v),)


def zone(name, lo, hi, shard="shard00"):
    return Zone(name=name, min_key=key(lo), max_key=key(hi), shard_id=shard)


class TestZone:
    def test_contains_half_open(self):
        z = zone("z", 10, 20)
        assert z.contains(key(10))
        assert z.contains(key(19))
        assert not z.contains(key(20))

    def test_rejects_empty_range(self):
        with pytest.raises(ZoneError):
            zone("z", 10, 10)

    def test_covers_range(self):
        z = zone("z", 10, 20)
        assert z.covers_range(key(10), key(20))
        assert z.covers_range(key(12), key(15))
        assert not z.covers_range(key(5), key(15))
        assert not z.covers_range(key(15), key(25))


class TestZoneSet:
    def test_ordered_iteration(self):
        zs = ZoneSet([zone("b", 20, 30), zone("a", 0, 10)])
        assert [z.name for z in zs] == ["a", "b"]
        assert len(zs) == 2

    def test_rejects_overlap(self):
        with pytest.raises(ZoneError):
            ZoneSet([zone("a", 0, 15), zone("b", 10, 20)])

    def test_adjacent_zones_allowed(self):
        zs = ZoneSet([zone("a", 0, 10), zone("b", 10, 20)])
        assert len(zs) == 2

    def test_zone_for_range(self):
        zs = ZoneSet([zone("a", 0, 10, "s0"), zone("b", 10, 20, "s1")])
        assert zs.zone_for_range(key(2), key(8)).name == "a"
        assert zs.zone_for_range(key(8), key(12)) is None  # straddles
        assert zs.zone_for_range(key(25), key(30)) is None  # outside

    def test_boundaries_sorted_unique(self):
        zs = ZoneSet([zone("a", 0, 10), zone("b", 10, 20)])
        assert zs.boundaries() == [key(0), key(10), key(20)]
