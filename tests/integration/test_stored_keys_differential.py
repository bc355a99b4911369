"""Stored curve keys against the reference encoders, for all four approaches.

Every ``hilbertIndex`` a hil or hil* load stores must be the rotate/flip
Hilbert value of its point's cell, and every 2dsphere key a bslST or
bslTS load stores must be the paper's GeoHash bisection of its point:
the table-driven curves write exactly what the oracles compute.
"""

import pytest

from repro.core.approaches import (
    APPROACH_NAMES,
    COLLECTION,
    deploy_approach,
    make_approach,
)
from repro.datagen.datasets import ReproScale, load_r_dataset
from repro.docstore.bson import sort_key
from repro.reference import reference_encode_cell
from repro.sfc.geohash import geohash_encode_int


@pytest.fixture(scope="module")
def dataset():
    return load_r_dataset(ReproScale(r1_records=2_000))


def reference_key(approach, document):
    lon, lat = document["location"]["coordinates"]
    if approach.name.startswith("bsl"):
        return geohash_encode_int(lon, lat, 26)
    curve = approach.encoder.curve
    return reference_encode_cell(curve, *curve.cell_of(lon, lat))


@pytest.mark.parametrize("name", APPROACH_NAMES)
def test_stored_keys_match_the_reference_encoders(dataset, name):
    info, documents = dataset
    approach = make_approach(name, dataset_bbox=info.bbox)
    deployment = deploy_approach(approach, documents)
    field = "location" if name.startswith("bsl") else "hilbertIndex"
    checked = 0
    for shard in deployment.cluster.shards.values():
        collection = shard.collection(COLLECTION)
        stored_docs = list(collection.all_documents())
        if field == "hilbertIndex":
            for doc in stored_docs:
                assert doc["hilbertIndex"] == reference_key(approach, doc)
        expected = sorted(
            sort_key(reference_key(approach, doc)) for doc in stored_docs
        )
        for definition in collection.index_definitions():
            index_name = definition.name
            paths = [f.path for f in definition.fields]
            if field not in paths:
                continue
            position = paths.index(field)
            stored = sorted(
                key[position]
                for key in collection.get_index(index_name).iter_storage_keys()
            )
            assert stored == expected
            checked += len(stored)
    assert checked == len(documents)
