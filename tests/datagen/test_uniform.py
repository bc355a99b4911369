"""Tests for the uniform (S) data generator."""

import datetime as dt

from repro.datagen.uniform import (
    S_BBOX,
    S_TIMESPAN,
    UniformConfig,
    UniformGenerator,
)
from repro.datagen.vehicles import GREECE_BBOX
from repro.docstore.bson import bson_document_size
from repro.geo.geometry import Point


def gen(n=1000, **kwargs):
    return UniformGenerator(UniformConfig(**kwargs)).generate_list(n)


class TestUniformGenerator:
    def test_exact_count(self):
        assert len(gen(123)) == 123

    def test_deterministic(self):
        assert gen(200, seed=9) == gen(200, seed=9)

    def test_inside_paper_mbr(self):
        for doc in gen(1000):
            lon, lat = doc["location"]["coordinates"]
            assert S_BBOX.contains(Point(lon, lat))

    def test_mbr_is_small_fraction_of_r(self):
        # Section 5.1: S's MBR is ~1.54% of R's MBR area.
        fraction = S_BBOX.area_deg2() / GREECE_BBOX.area_deg2()
        assert 0.014 < fraction < 0.017

    def test_timespan_is_2_5_months(self):
        span = S_TIMESPAN[1] - S_TIMESPAN[0]
        assert dt.timedelta(days=74) < span < dt.timedelta(days=78)
        for doc in gen(500):
            assert S_TIMESPAN[0] <= doc["date"] <= S_TIMESPAN[1]

    def test_documents_are_narrow(self):
        # Four CSV columns + GeoJSON: much smaller than R documents.
        sizes = [bson_document_size(d) for d in gen(100)]
        assert max(sizes) < 250

    def test_fields(self):
        doc = gen(1)[0]
        assert set(doc) == {"id", "location", "longitude", "latitude", "date"}
        assert doc["longitude"] == doc["location"]["coordinates"][0]

    def test_roughly_uniform_spatially(self):
        docs = gen(4000)
        # Split the MBR into 4 lon quarters; each should hold ~25%.
        width = (S_BBOX.max_lon - S_BBOX.min_lon) / 4
        counts = [0] * 4
        for d in docs:
            q = min(3, int((d["longitude"] - S_BBOX.min_lon) / width))
            counts[q] += 1
        for c in counts:
            assert 800 < c < 1200

    def test_ids_sequential(self):
        assert [d["id"] for d in gen(10)] == list(range(10))
