"""Cost-based chooser: determinism, pick logic, stale fallback."""

import datetime as _dt

import pytest

from repro.cluster.cluster import ClusterTopology
from repro.core.chooser import (
    ADAPTIVE_INDEXES,
    CostBasedChooser,
    deploy_adaptive,
)
from repro.core.query import SpatioTemporalQuery
from repro.datagen import FleetConfig, FleetGenerator
from repro.geo.geometry import BoundingBox
from repro.service import QueryService, ServiceConfig
from repro.workloads.queries import BIG_BBOX, SMALL_BBOX

_UTC = _dt.timezone.utc


class _StubStats:
    """Duck-typed catalog entry with exact, hand-picked selectivities.

    The chooser only reads ``total_docs``, ``time_selectivity`` and
    ``space_selectivity(bbox, snap_order=...)``; pinning those numbers
    makes every cost-function branch assertable without arranging real
    data to hit it.
    """

    def __init__(self, total_docs, time_sel, sel_by_order):
        self.total_docs = total_docs
        self._time_sel = time_sel
        self._sel_by_order = sel_by_order

    def time_selectivity(self, lo, hi):
        return self._time_sel

    def space_selectivity(self, bbox, snap_order=None):
        return self._sel_by_order[snap_order]


def _query(bbox=SMALL_BBOX, days=30):
    start = _dt.datetime(2018, 8, 1, tzinfo=_UTC)
    return SpatioTemporalQuery(
        bbox=bbox,
        time_from=start,
        time_to=start + _dt.timedelta(days=days),
    )


class TestChooserCostModel:
    def test_tiny_box_long_window_avoids_time_index(self):
        # geo prunes to 0.1% of the data, time keeps half of it: any
        # plan scanning the time axis first pays 0.1*n*0.5 in keys.
        stats = _StubStats(10_000, 0.5, {13: 0.001, 15: 0.0005})
        decision = CostBasedChooser(lambda: stats).choose(_query())
        assert decision.used_stats
        assert decision.name in ("bslST", "hil")
        assert decision.estimates["bslTS"] > decision.estimates[decision.name]

    def test_big_box_short_window_picks_time_index(self):
        stats = _StubStats(100_000, 0.01, {13: 0.9, 15: 0.85})
        decision = CostBasedChooser(lambda: stats).choose(
            _query(bbox=BIG_BBOX, days=1)
        )
        assert decision.name == "bslTS"
        assert decision.hint == ADAPTIVE_INDEXES["bslTS"]

    def test_finer_curve_wins_when_it_prunes_harder(self):
        # The order-15 curve keeps 0.05% vs the geohash grid's 0.1%:
        # half the candidate documents beats hil's fixed overhead.
        stats = _StubStats(10_000, 0.5, {13: 0.001, 15: 0.0005})
        decision = CostBasedChooser(lambda: stats, hil_order=15).choose(
            _query()
        )
        assert decision.name == "hil"
        # Tight covering: no need to cap the decomposition.
        assert decision.max_ranges is None

    def test_coarse_covering_is_capped(self):
        # hil wins outright but the box covers 6% of the curve: the
        # decomposition is capped so range count cannot explode.
        stats = _StubStats(1_000, 0.9, {13: 0.9, 15: 0.06})
        decision = CostBasedChooser(lambda: stats, hil_order=15).choose(
            _query(bbox=BIG_BBOX)
        )
        assert decision.name == "hil"
        assert decision.max_ranges == 256

    def test_ties_break_by_name(self):
        # geo_sel == time_sel makes bslST and bslTS cost-identical;
        # the tie must break deterministically (lexicographic).
        stats = _StubStats(10_000, 0.3, {13: 0.3, 15: 0.3})
        decision = CostBasedChooser(lambda: stats).choose(_query())
        assert decision.name == "bslST"

    def test_same_catalog_same_decision(self):
        stats = _StubStats(10_000, 0.5, {13: 0.001, 15: 0.0005})
        chooser = CostBasedChooser(lambda: stats, hil_order=15)
        query = _query()
        decisions = [chooser.choose(query) for _ in range(5)]
        assert all(d == decisions[0] for d in decisions)

    def test_missing_stats_falls_back_to_default(self):
        chooser = CostBasedChooser(lambda: None, default="bslTS")
        decision = chooser.choose(_query())
        assert not decision.used_stats
        assert decision.name == "bslTS"
        assert decision.hint == ADAPTIVE_INDEXES["bslTS"]
        assert decision.max_ranges is None
        assert chooser.fallbacks == 1

    def test_partial_stats_fall_back(self):
        class _NoSpace(_StubStats):
            def space_selectivity(self, bbox, snap_order=None):
                return None

        chooser = CostBasedChooser(
            lambda: _NoSpace(1_000, 0.5, {})
        )
        assert not chooser.choose(_query()).used_stats

    def test_invalid_default_rejected(self):
        with pytest.raises(ValueError):
            CostBasedChooser(lambda: None, default="collscan")

    def test_decision_as_dict(self):
        stats = _StubStats(10_000, 0.5, {13: 0.001, 15: 0.0005})
        d = CostBasedChooser(lambda: stats).choose(_query()).as_dict()
        assert set(d) == {
            "name",
            "hint",
            "maxRanges",
            "estimates",
            "usedStats",
        }


class TestChooserOnAdaptiveCluster:
    """End to end against a real catalog built by ANALYZE."""

    @pytest.fixture(scope="class")
    def adaptive(self):
        docs = FleetGenerator(FleetConfig(seed=7)).generate_list(400)
        return deploy_adaptive(
            docs,
            ClusterTopology(n_shards=2, n_config_servers=1, n_routers=1),
            chunk_max_bytes=128 * 1024,
            order=15,
        )

    def test_analyze_then_choose_is_deterministic(self, adaptive):
        with QueryService(adaptive.cluster, ServiceConfig()) as service:
            service.analyze_collection(adaptive.collection)
            chooser = CostBasedChooser(
                lambda: service.collection_stats(adaptive.collection),
                hil_order=15,
            )
            query = _query()
            first = chooser.choose(query)
            assert first.used_stats
            assert all(
                chooser.choose(query) == first for _ in range(3)
            )
            assert chooser.fallbacks == 0

    def test_stale_catalog_falls_back_then_recovers(self, adaptive):
        with QueryService(adaptive.cluster, ServiceConfig()) as service:
            service.analyze_collection(adaptive.collection)
            chooser = CostBasedChooser(
                lambda: service.collection_stats(adaptive.collection),
            )
            assert chooser.choose(_query()).used_stats
            # DDL bumps the cluster metadata version: the catalog's
            # stamp no longer matches, every read is a stale rejection,
            # and the chooser degrades to its static default.
            adaptive.cluster.create_index(
                adaptive.collection, [("speed", 1)], name="speed_1"
            )
            stale = chooser.choose(_query())
            assert not stale.used_stats
            assert stale.name == chooser.default
            assert chooser.fallbacks == 1
            # Re-ANALYZE restamps the catalog at the new version.
            service.analyze_collection(adaptive.collection)
            assert chooser.choose(_query()).used_stats

    def test_chosen_plans_return_identical_results(self, adaptive):
        """Every strategy the chooser can pick answers identically."""
        query = _query(bbox=BIG_BBOX, days=7)
        frames = {}
        for name, hint in ADAPTIVE_INDEXES.items():
            rendered, _ = adaptive.render(
                query,
                CostBasedChooser(lambda: None, default=name).choose(query),
            )
            result = adaptive.cluster.find(
                adaptive.collection, rendered, hint=hint
            )
            frames[name] = sorted(
                d["_id"] for d in result.documents
            )
        assert frames["bslST"] == frames["bslTS"] == frames["hil"]
        assert len(frames["hil"]) > 0
