"""Statistics subsystem: histograms, density sketches, the catalog."""

import datetime as _dt

import pytest

from repro.cache import StampedLRUCache
from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, deploy_approach, make_approach
from repro.datagen import FleetConfig, FleetGenerator
from repro.docstore.stats import (
    CellDensitySketch,
    CollectionStats,
    FieldHistogram,
    analyze_collection,
)
from repro.geo.geometry import BoundingBox

_UTC = _dt.timezone.utc


class TestFieldHistogram:
    def test_equi_depth_uniform(self):
        hist = FieldHistogram.build("v", list(range(1000)), buckets=16)
        assert hist.buckets == 16
        assert hist.total == 1000
        # Uniform data: the middle half holds about half the mass.
        assert hist.selectivity(250, 750) == pytest.approx(0.5, abs=0.05)
        assert hist.selectivity(0, 999) == 1.0

    def test_skewed_data_gets_narrow_buckets(self):
        # 900 values packed into [0, 10), 100 spread over [10, 1000):
        # equi-depth bounds concentrate where the data does.
        values = [i / 100 for i in range(900)] + [
            10 + i * 9.9 for i in range(100)
        ]
        hist = FieldHistogram.build("v", values, buckets=10)
        assert hist.selectivity(0, 10) == pytest.approx(0.9, abs=0.1)

    def test_out_of_range_and_inverted(self):
        hist = FieldHistogram.build("v", [10, 20, 30], buckets=4)
        assert hist.selectivity(-5, 5) == 0.0
        assert hist.selectivity(40, 50) == 0.0
        assert hist.selectivity(30, 10) == 0.0  # inverted window
        assert hist.selectivity(0, 100) == 1.0

    def test_datetime_values_aware_and_naive(self):
        start = _dt.datetime(2018, 7, 1, tzinfo=_UTC)
        values = [start + _dt.timedelta(hours=i) for i in range(100)]
        hist = FieldHistogram.build("date", values, buckets=8)
        mid = start + _dt.timedelta(hours=50)
        assert hist.selectivity(start, mid) == pytest.approx(0.5, abs=0.1)
        # Naive datetimes build their own consistent ordinal space.
        naive = FieldHistogram.build(
            "date",
            [_dt.datetime(2018, 7, 1) + _dt.timedelta(days=i) for i in range(10)],
            buckets=4,
        )
        assert naive is not None

    def test_non_scalars_dropped(self):
        hist = FieldHistogram.build(
            "v", [1, 2, 3, "x", None, True, [4]], buckets=4
        )
        # bools are not scalars here (True == 1 would pollute ranges).
        assert hist.total == 3

    def test_empty_and_constant(self):
        assert FieldHistogram.build("v", [], buckets=4) is None
        assert FieldHistogram.build("v", ["x", None], buckets=4) is None
        constant = FieldHistogram.build("v", [7] * 50, buckets=4)
        assert constant.selectivity(7, 7) in (0.0, 1.0)  # degenerate, no crash

    def test_as_dict_round_trip_fields(self):
        hist = FieldHistogram.build("v", list(range(10)), buckets=2)
        d = hist.as_dict()
        assert d["field"] == "v"
        assert d["buckets"] == 2
        assert len(d["bounds"]) == 3
        assert d["total"] == 10


class TestCellDensitySketch:
    def _grid_points(self, n_side=20):
        # Uniform grid over a patch of Greece.
        return [
            (22.0 + 2.0 * i / n_side, 37.0 + 2.0 * j / n_side)
            for i in range(n_side)
            for j in range(n_side)
        ]

    def test_whole_domain_is_everything(self):
        sketch = CellDensitySketch.build(self._grid_points(), order=8)
        world = BoundingBox(-180.0, -90.0, 180.0, 90.0)
        assert sketch.selectivity(world) == pytest.approx(1.0)
        assert sketch.cell_selectivity(world) == pytest.approx(1.0)

    def test_empty_region_is_zero(self):
        sketch = CellDensitySketch.build(self._grid_points(), order=8)
        ocean = BoundingBox(-150.0, -40.0, -140.0, -30.0)
        assert sketch.selectivity(ocean) == 0.0
        assert sketch.cell_selectivity(ocean) == 0.0

    def test_cell_selectivity_upper_bounds_weighted(self):
        sketch = CellDensitySketch.build(self._grid_points(), order=8)
        box = BoundingBox(22.3, 37.2, 23.1, 37.9)
        weighted = sketch.selectivity(box)
        cells = sketch.cell_selectivity(box)
        assert 0.0 < weighted <= cells <= 1.0

    def test_snap_expands_outward(self):
        sketch = CellDensitySketch.build(self._grid_points(), order=8)
        box = BoundingBox(22.31, 37.21, 22.32, 37.22)
        for order in (6, 10, 13):
            snapped = sketch.snap(box, order)
            assert snapped.min_lon <= box.min_lon
            assert snapped.min_lat <= box.min_lat
            assert snapped.max_lon >= box.max_lon
            assert snapped.max_lat >= box.max_lat
            # Snapping is idempotent: a grid-aligned box stays put.
            again = sketch.snap(snapped, order)
            assert again.min_lon == pytest.approx(snapped.min_lon)
            assert again.max_lon == pytest.approx(snapped.max_lon)

    def test_snap_order_orders_candidate_sets(self):
        # A coarser grid snaps to a bigger box, so its candidate-set
        # estimate dominates a finer grid's — the monotonicity the
        # chooser's granularity ranking relies on.
        sketch = CellDensitySketch.build(self._grid_points(), order=8)
        box = BoundingBox(22.31, 37.21, 22.34, 37.24)
        plain = sketch.selectivity(box)
        fine = sketch.selectivity(box, snap_order=15)
        coarse = sketch.selectivity(box, snap_order=10)
        assert plain <= fine <= coarse

    def test_empty_points(self):
        assert CellDensitySketch.build([], order=8) is None


class TestStatsCatalogCache:
    """The catalog is a StampedLRUCache stamped with ``metadata_version``."""

    def _stats(self, version=1):
        return CollectionStats(
            collection="traces",
            metadata_version=version,
            total_docs=10,
            shard_docs={"s0": 10},
            chunk_docs=(("s0", 10),),
        )

    def _fill(self, cache, stats):
        cache.put(stats.collection, stats, stamp=stats.metadata_version)

    def test_miss_then_hit(self):
        cache = StampedLRUCache()
        assert cache.get("traces", stamp=1) is None
        self._fill(cache, self._stats(version=1))
        assert cache.get("traces", stamp=1) is not None
        s = cache.stats()
        assert s["misses"] == 1 and s["hits"] == 1 and s["entries"] == 1

    def test_version_mismatch_is_stale_rejection(self):
        cache = StampedLRUCache()
        self._fill(cache, self._stats(version=1))
        assert cache.get("traces", stamp=2) is None
        assert cache.stats()["stale"] == 1
        # The stale entry stays until a re-ANALYZE replaces it; a read
        # at the stamped version still serves it.
        assert cache.get("traces", stamp=1) is not None

    def test_invalidate_collection(self):
        """Re-ANALYZE under a new version restamps one collection in place."""
        cache = StampedLRUCache()
        self._fill(cache, self._stats(version=1))
        other = CollectionStats(
            collection="other",
            metadata_version=1,
            total_docs=0,
            shard_docs={},
            chunk_docs=(),
        )
        self._fill(cache, other)
        self._fill(cache, self._stats(version=2))
        assert cache.get("traces", stamp=1) is None
        assert cache.get("traces", stamp=2).metadata_version == 2
        assert cache.get("other", stamp=1) is other
        assert cache.stats()["entries"] == 2

    def test_clear(self):
        cache = StampedLRUCache()
        self._fill(cache, self._stats())
        cache.clear()
        assert cache.stats()["entries"] == 0


class TestAnalyzeCollection:
    @pytest.fixture(scope="class")
    def deployment(self):
        docs = FleetGenerator(FleetConfig(seed=7)).generate_list(300)
        return deploy_approach(
            make_approach("bslST"),
            docs,
            topology=ClusterTopology(
                n_shards=2, n_config_servers=1, n_routers=1
            ),
            chunk_max_bytes=64 * 1024,
        )

    def test_counts_and_version(self, deployment):
        cluster = deployment.cluster
        stats = analyze_collection(cluster, COLLECTION)
        assert stats.collection == COLLECTION
        assert stats.metadata_version == cluster.metadata_version
        assert stats.total_docs == 300
        assert sum(stats.shard_docs.values()) == 300
        assert sum(n for _, n in stats.chunk_docs) == 300
        assert stats.time_histogram is not None
        assert stats.cell_sketch is not None

    def test_selectivities_reflect_data(self, deployment):
        stats = analyze_collection(deployment.cluster, COLLECTION)
        # The fleet spans Jul-Nov 2018; a window covering all of it has
        # selectivity 1, a disjoint one 0.
        assert stats.time_selectivity(
            _dt.datetime(2018, 6, 1, tzinfo=_UTC),
            _dt.datetime(2019, 1, 1, tzinfo=_UTC),
        ) == pytest.approx(1.0)
        assert (
            stats.time_selectivity(
                _dt.datetime(2017, 1, 1, tzinfo=_UTC),
                _dt.datetime(2017, 6, 1, tzinfo=_UTC),
            )
            == 0.0
        )
        # All of Greece vs open ocean.
        assert stats.space_selectivity(
            BoundingBox(19.0, 33.0, 29.0, 42.0)
        ) == pytest.approx(1.0)
        assert (
            stats.space_selectivity(BoundingBox(-60.0, -40.0, -50.0, -30.0))
            == 0.0
        )

    def test_as_dict_shape(self, deployment):
        payload = analyze_collection(deployment.cluster, COLLECTION).as_dict()
        assert set(payload) == {
            "collection",
            "metadataVersion",
            "totalDocs",
            "shardDocs",
            "chunkDocs",
            "timeHistogram",
            "cellSketch",
        }
