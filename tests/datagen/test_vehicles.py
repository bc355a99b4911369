"""Tests for the fleet (R) data generator."""

import datetime as dt

from repro.datagen.vehicles import (
    GREECE_BBOX,
    R_TIMESPAN,
    FleetConfig,
    FleetGenerator,
)
from repro.docstore.bson import bson_document_size
from repro.geo.geometry import Point
from repro.workloads.queries import BIG_BBOX, SMALL_BBOX


def gen(n=2000, **kwargs):
    return FleetGenerator(FleetConfig(**kwargs)).generate_list(n)


class TestFleetGenerator:
    def test_exact_count(self):
        assert len(gen(777)) == 777
        assert gen(0) == []

    def test_deterministic(self):
        a = gen(300, seed=42)
        b = gen(300, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen(100, seed=1)
        b = gen(100, seed=2)
        assert a != b

    def test_all_points_inside_paper_mbr(self):
        for doc in gen(1500):
            lon, lat = doc["location"]["coordinates"]
            assert GREECE_BBOX.contains(Point(lon, lat))

    def test_timestamps_inside_paper_span(self):
        for doc in gen(1500):
            assert R_TIMESPAN[0] <= doc["date"] < R_TIMESPAN[1]

    def test_documents_are_wide(self):
        # Stand-in for the paper's 75-value records: ~1 KB BSON.
        sizes = [bson_document_size(d) for d in gen(100)]
        assert min(sizes) > 500
        assert max(sizes) < 2000

    def test_required_fields_present(self):
        doc = gen(1)[0]
        for field in ("vehicle_id", "location", "date", "speed_kmh",
                      "weather", "road", "poi"):
            assert field in doc
        assert doc["location"]["type"] == "Point"

    def test_athens_skew(self):
        # Half the fleet is Athens-based; the big query box (greater
        # Athens) must hold far more points than a same-sized area
        # elsewhere in Greece.
        docs = gen(4000)
        in_big = sum(
            1
            for d in docs
            if BIG_BBOX.contains(Point(*d["location"]["coordinates"]))
        )
        # A box of the same size in the empty south-west.
        from repro.geo.geometry import BoundingBox

        empty_box = BoundingBox(20.0, 35.2, 20.43, 35.53)
        in_empty = sum(
            1
            for d in docs
            if empty_box.contains(Point(*d["location"]["coordinates"]))
        )
        assert in_big > 20 * max(1, in_empty)

    def test_small_box_is_selective_but_reachable(self):
        docs = gen(20_000)
        in_small = sum(
            1
            for d in docs
            if SMALL_BBOX.contains(Point(*d["location"]["coordinates"]))
        )
        assert 0 < in_small < len(docs) * 0.01

    def test_trajectory_correlation(self):
        # Consecutive records of one trip (adjacent record ids, same
        # vehicle) are typically close in space — the locality the
        # Hilbert sharding exploits.  Long-haul trips allow big steps,
        # so assert on the median step, not the maximum.
        docs = gen(2000)
        steps = []
        for a, b in zip(docs, docs[1:]):
            if a["vehicle_id"] != b["vehicle_id"]:
                continue  # trip boundary
            lon_a, lat_a = a["location"]["coordinates"]
            lon_b, lat_b = b["location"]["coordinates"]
            steps.append(abs(lon_a - lon_b) + abs(lat_a - lat_b))
        assert len(steps) > 500
        steps.sort()
        assert steps[len(steps) // 2] < 0.2  # median step is local

    def test_roughly_chronological_stream(self):
        docs = gen(3000)
        dates = [d["date"] for d in docs]
        # Compare first and last deciles.
        early = sorted(dates[:300])[150]
        late = sorted(dates[-300:])[150]
        assert late > early

    def test_record_ids_sequential(self):
        docs = gen(50)
        assert [d["record_id"] for d in docs] == list(range(50))
