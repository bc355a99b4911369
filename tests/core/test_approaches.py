"""Tests for approach recipes and deployment."""

import datetime as dt
import random

import pytest

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import (
    APPROACH_NAMES,
    BaselineST,
    BaselineTS,
    HilbertApproach,
    deploy_approach,
    make_approach,
)
from repro.core.loader import BulkLoader
from repro.core.query import SpatioTemporalQuery
from repro.geo.geometry import BoundingBox

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)
BBOX = BoundingBox(23.0, 37.5, 24.5, 38.6)


def make_docs(n=800, seed=3):
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        docs.append(
            {
                "vehicle": i % 17,
                "location": {
                    "type": "Point",
                    "coordinates": [
                        rng.uniform(BBOX.min_lon, BBOX.max_lon),
                        rng.uniform(BBOX.min_lat, BBOX.max_lat),
                    ],
                },
                "date": T0 + dt.timedelta(minutes=rng.uniform(0, 60 * 24 * 75)),
            }
        )
    return docs


def make_query():
    return SpatioTemporalQuery(
        bbox=BoundingBox(23.6, 38.0, 24.0, 38.35),
        time_from=T0,
        time_to=T0 + dt.timedelta(days=7),
        label="Q",
    )


class TestRecipes:
    def test_factory_names(self):
        for name in APPROACH_NAMES:
            approach = make_approach(name, dataset_bbox=BBOX)
            assert approach.name == name

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_approach("zorder")

    def test_hilstar_requires_bbox(self):
        with pytest.raises(ValueError):
            make_approach("hilstar")

    def test_baseline_shard_keys(self):
        assert BaselineST().shard_key_spec() == [("date", 1)]
        assert BaselineTS().shard_key_spec() == [("date", 1)]

    def test_baseline_index_field_order_differs(self):
        st_spec = BaselineST().index_specs()[0][0]
        ts_spec = BaselineTS().index_specs()[0][0]
        assert st_spec[0][0] == "location"
        assert ts_spec[0][0] == "date"

    def test_hilbert_shard_key_is_compound(self):
        assert HilbertApproach.global_domain().shard_key_spec() == [
            ("hilbertIndex", 1),
            ("date", 1),
        ]

    def test_hilbert_needs_no_extra_index(self):
        # Appendix A.3: hil has only the _id and shard-key indexes.
        assert HilbertApproach.global_domain().index_specs() == []

    def test_zone_fields(self):
        assert BaselineST().zone_field() == "date"
        assert HilbertApproach.global_domain().zone_field() == "hilbertIndex"

    def test_transform(self):
        doc = make_docs(1)[0]
        assert "hilbertIndex" in HilbertApproach.global_domain().transform(doc)
        assert "hilbertIndex" not in BaselineST().transform(doc)


TOPOLOGY = ClusterTopology(n_shards=4)


class TestDeployment:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_deploy_and_query_all_approaches_agree(self, name):
        docs = make_docs()
        approach = make_approach(name, dataset_bbox=BBOX)
        deployment = deploy_approach(
            approach,
            docs,
            topology=TOPOLOGY,
            chunk_max_bytes=8 * 1024,
            loader=BulkLoader(batch_size=500),
        )
        result, decomposition_ms = deployment.execute(make_query())
        # Ground truth via the baseline matcher.
        from repro.docstore.matcher import matches

        expected = [
            d for d in docs if matches(make_query().to_baseline_query(), d)
        ]
        assert len(result) == len(expected)
        assert decomposition_ms >= 0.0

    def test_zones_deployment_preserves_results(self):
        docs = make_docs()
        plain = deploy_approach(
            make_approach("hil"),
            docs,
            topology=TOPOLOGY,
            chunk_max_bytes=8 * 1024,
        )
        zoned = deploy_approach(
            make_approach("hil"),
            docs,
            topology=TOPOLOGY,
            chunk_max_bytes=8 * 1024,
            use_zones=True,
        )
        r1, _ = plain.execute(make_query())
        r2, _ = zoned.execute(make_query())
        assert len(r1) == len(r2)
        assert zoned.zones_enabled

    def test_hil_document_carries_hilbert_index(self):
        docs = make_docs(50)
        deployment = deploy_approach(
            make_approach("hil"),
            docs,
            topology=TOPOLOGY,
        )
        shard_docs = []
        for shard in deployment.cluster.shards.values():
            shard_docs.extend(shard.collection("traces").all_documents())
        assert len(shard_docs) == 50
        assert all("hilbertIndex" in d for d in shard_docs)

    def test_bsl_has_two_secondary_indexes(self):
        # Shard-key (date) index + compound; plus _id_ = 3 total.
        docs = make_docs(50)
        deployment = deploy_approach(
            make_approach("bslST"), docs, topology=TOPOLOGY
        )
        shard = next(iter(deployment.cluster.shards.values()))
        definitions = shard.collection("traces").index_definitions()
        names = {d.name for d in definitions}
        assert names == {"_id_", "shardkey_date", "location_date"}

    def test_hil_has_single_secondary_index(self):
        docs = make_docs(50)
        deployment = deploy_approach(
            make_approach("hil"), docs, topology=TOPOLOGY
        )
        shard = next(iter(deployment.cluster.shards.values()))
        definitions = shard.collection("traces").index_definitions()
        names = {d.name for d in definitions}
        assert names == {"_id_", "shardkey_hilbertIndex_date"}

    def test_totals(self):
        docs = make_docs(60)
        deployment = deploy_approach(
            make_approach("bslST"), docs, topology=TOPOLOGY
        )
        totals = deployment.totals()
        assert totals["count"] == 60
