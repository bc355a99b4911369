"""Callers own their arguments and their results.

No public write or read entry point may keep a reference into a
document, filter or update it was handed, or into a document it
returned.  Each case deep-copies its arguments, makes the call, and
checks the arguments came back unchanged; it then overwrites every
container the caller holds — arguments and return value — and checks
that a fresh read, a full scan and an index-backed filter, returns
what it did before.
"""

import copy
import datetime as dt

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.loader import BulkLoader
from repro.docstore.collection import Collection
from repro.service.service import QueryService

T0 = dt.datetime(2019, 1, 1, tzinfo=dt.timezone.utc)


def _doc(i):
    return {
        "_id": i,
        "k": i,
        "meta": {"x": i % 3, "tags": ["a", {"deep": i}]},
        "seen": [T0 + dt.timedelta(hours=i)],
        "date": T0 + dt.timedelta(days=i),
    }


SEED = [_doc(i) for i in range(12)]


def _new_docs():
    return [_doc(20), _doc(21)]


def _filter():
    return {"meta.x": {"$in": [0, 1]}, "date": {"$gte": T0}}


def _update():
    return {
        "$set": {"meta.extra": {"y": [1, 2]}, "when": T0},
        "$push": {"seen": {"at": [T0]}},
        "$max": {"best": {"v": [3]}},
    }


def _projection():
    return {"meta": 1, "seen": 1}


def _collection(docs):
    collection = Collection("t")
    collection.create_index([("meta.x", 1)])
    collection.insert_many(copy.deepcopy(docs))
    return collection, lambda query: list(collection.find(query))


def _cluster(docs):
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=2), chunk_max_bytes=512
    )
    cluster.shard_collection("t", [("k", 1)])
    cluster.create_index("t", [("meta.x", 1)])
    if docs:
        cluster.insert_many("t", copy.deepcopy(docs))
    return cluster, lambda query: cluster.find("t", query).documents


def _service(docs):
    cluster, read = _cluster(docs)
    return QueryService(cluster), read


CASES = [
    pytest.param(
        _collection, SEED, lambda c, d: c.insert_one(d), lambda: [_doc(20)],
        id="Collection.insert_one",
    ),
    pytest.param(
        _collection, SEED, lambda c, ds: c.insert_many(ds),
        lambda: [_new_docs()], id="Collection.insert_many",
    ),
    pytest.param(
        _collection, SEED, lambda c, q, u: c.update_many(q, u),
        lambda: [_filter(), _update()], id="Collection.update_many",
    ),
    pytest.param(
        _collection, SEED, lambda c, q: c.delete_many(q),
        lambda: [{"meta.x": {"$in": [2]}}], id="Collection.delete_many",
    ),
    pytest.param(
        _collection, SEED, lambda c, q: list(c.find(q)),
        lambda: [_filter()], id="Collection.find",
    ),
    pytest.param(
        _collection, SEED, lambda c, q, p: list(c.find(q, projection=p)),
        lambda: [_filter(), _projection()], id="Collection.find(projection=)",
    ),
    pytest.param(
        _collection, SEED, lambda c, p: c.aggregate(p),
        lambda: [[{"$project": _projection()}]], id="Collection.aggregate",
    ),
    pytest.param(
        _cluster, SEED, lambda c, ds: c.insert_many("t", ds),
        lambda: [_new_docs()], id="ShardedCluster.insert_many",
    ),
    pytest.param(
        _cluster, SEED, lambda c, q, u: c.update_many("t", q, u),
        lambda: [_filter(), _update()], id="ShardedCluster.update_many",
    ),
    pytest.param(
        _cluster, SEED, lambda c, q: c.find("t", q).documents,
        lambda: [_filter()], id="ShardedCluster.find",
    ),
    pytest.param(
        _cluster, SEED, lambda c, p: c.aggregate("t", p),
        lambda: [[{"$project": _projection()}]], id="ShardedCluster.aggregate",
    ),
    pytest.param(
        _cluster, SEED, lambda c, p: c.aggregate("t", p),
        lambda: [[{"$bucketAuto": {"groupBy": "$meta", "buckets": 3}}]],
        id="ShardedCluster.aggregate($bucketAuto)",
    ),
    pytest.param(
        _cluster, [], lambda c, ds: BulkLoader().load(c, "t", ds),
        lambda: [_new_docs()], id="BulkLoader.load",
        # The initial load copies each document's top level only and
        # keeps the caller's nested containers: a deep copy would hold
        # every nested field of the data set twice (about 1 KB per fleet
        # document, +18 % peak RSS on the 50 000-document benchmark
        # deployment, which keeps its source documents for the oracle).
        marks=pytest.mark.xfail(
            strict=True, reason="bulk load adopts nested containers"
        ),
    ),
    pytest.param(
        _service, SEED, lambda s, ds: s.insert_many("t", ds),
        lambda: [_new_docs()], id="QueryService.insert_many",
    ),
    pytest.param(
        _service, SEED, lambda s, q, u: s.update_many("t", q, u),
        lambda: [_filter(), _update()], id="QueryService.update_many",
    ),
    pytest.param(
        _service, SEED, lambda s, q: s.find("t", q).documents,
        lambda: [_filter()], id="QueryService.find",
    ),
]


def _scribble(value):
    """Overwrite every container reachable from ``value``, in place."""
    if isinstance(value, dict):
        for key in list(value):
            _scribble(value[key])
            value[key] = "scribbled"
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value[:] = ["scribbled"]


@pytest.mark.parametrize("make, seed, call, make_args", CASES)
def test_entry_point_keeps_no_reference_to_caller_objects(
    make, seed, call, make_args
):
    store, read = make(seed)

    def state():
        return [
            sorted(read(query), key=lambda doc: doc["_id"])
            for query in ({}, _filter())
        ]

    args = make_args()
    snapshot = copy.deepcopy(args)
    try:
        returned = call(store, *args)
        assert args == snapshot
        before = state()
        assert before[0]
        _scribble(args)
        _scribble(returned)
        assert state() == before
    finally:
        getattr(store, "shutdown", lambda: None)()
