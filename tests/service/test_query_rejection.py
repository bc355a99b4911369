"""A malformed query is rejected when it is built, on every read path
and every write path that takes a query.

MongoDB rejects each form below when it parses the query, before any
document is read: the verdict cannot depend on whether the collection
is empty or the field present.  Each case names the server error it
mirrors.
"""

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.docstore.collection import Collection
from repro.errors import QueryError
from repro.service.service import QueryService, ServiceConfig

MALFORMED = [
    # BadValue "$in needs an array"
    pytest.param({"$in": 10}, id="in-not-an-array"),
    # BadValue "$nin needs an array"
    pytest.param({"$nin": 3}, id="nin-not-an-array"),
    # BadValue "divisor cannot be 0"
    pytest.param({"$mod": [0, 1]}, id="mod-divisor-0"),
    # BadValue "malformed mod, not enough elements"
    pytest.param({"$mod": "ab"}, id="mod-malformed"),
    pytest.param({"$mod": [3]}, id="mod-one-element"),
    # BadValue "unknown type name alias: nope"
    pytest.param({"$type": "nope"}, id="type-unknown-alias"),
    # BadValue "$not needs a regex or a document"
    pytest.param({"$not": 5}, id="not-not-a-document"),
    # BadValue "unknown operator: $weird" (inside $not)
    pytest.param({"$not": {"$weird": 1}}, id="not-unknown-operator"),
    # BadValue "unknown geo specifier: $weird"
    pytest.param({"$geoWithin": {"$weird": 1}}, id="geo-unknown-specifier"),
    # BadValue "Point must only contain numeric elements"
    pytest.param(
        {"$geoWithin": {"$geometry": {"type": "Polygon", "coordinates": "x"}}},
        id="geo-unparseable-geometry",
    ),
    # BadValue "$geoWithin not supported with provided geometry"
    pytest.param(
        {"$geoWithin": {"$geometry": {"type": "Point", "coordinates": [0, 0]}}},
        id="geo-not-a-polygon",
    ),
    # The driver cannot encode the query (bson.errors.InvalidDocument).
    pytest.param({"$eq": {"x": {1, 2}}}, id="argument-not-bson"),
    pytest.param({"$in": [{"x": {1, 2}}]}, id="in-member-not-bson"),
    pytest.param({"$gte": {"x": {1, 2}}, "$lte": 5}, id="bound-not-bson"),
]

#: Malformed at the top level rather than under a field.
MALFORMED_TOP = [
    pytest.param({"$and": [5]}, id="and-clause-not-a-document"),
    pytest.param({"$and": 5}, id="and-not-an-array"),
    pytest.param({"$or": [{"k": 1}, 5]}, id="or-clause-not-a-document"),
    pytest.param({"$nor": [{"group": {"$in": 10}}]}, id="nor-clause-malformed"),
]

UPDATE = {"$set": {"touched": True}}

# Empty collection; present on no document; present on every document.
TARGETS = [("e", "group"), ("t", "ghost"), ("t", "group")]
TARGET_IDS = ["empty-collection", "missing-field", "present-field"]


@pytest.fixture(scope="module")
def cluster():
    cluster = ShardedCluster(topology=ClusterTopology(n_shards=2))
    cluster.shard_collection("t", [("k", 1)])
    cluster.shard_collection("e", [("k", 1)])
    cluster.insert_many(
        "t", [{"_id": i, "k": i * 7, "group": i % 10} for i in range(60)]
    )
    return cluster


@pytest.fixture(scope="module", params=["thread", "process"])
def service(request, cluster):
    config = ServiceConfig(executor=request.param, executor_workers=1)
    with QueryService(cluster, config) as service:
        yield service


def _queries(field, ops):
    """The malformed form alone, and as the one clause of an ``$or``."""
    return [{field: ops}, {"$or": [{field: ops}], "k": {"$gte": 0}}]


@pytest.mark.parametrize("ops", MALFORMED)
@pytest.mark.parametrize("name, field", TARGETS, ids=TARGET_IDS)
class TestRejectedWhenBuilt:
    def test_collection_find(self, cluster, ops, name, field):
        shard = next(iter(cluster.shards.values()))
        for collection in (shard.collection(name), Collection(name)):
            for query in _queries(field, ops):
                with pytest.raises(QueryError):
                    list(collection.find(query))

    def test_cluster_find(self, cluster, ops, name, field):
        for query in _queries(field, ops):
            with pytest.raises(QueryError):
                cluster.find(name, query)

    def test_service_find(self, service, ops, name, field):
        for query in _queries(field, ops):
            with pytest.raises(QueryError):
                service.find(name, query)

    def test_cluster_writes(self, cluster, ops, name, field):
        for query in _queries(field, ops):
            with pytest.raises(QueryError):
                cluster.delete_many(name, query)
            with pytest.raises(QueryError):
                cluster.update_many(name, query, UPDATE)
            with pytest.raises(QueryError):
                cluster.targeting_for(name, query)

    def test_service_writes(self, service, ops, name, field):
        for query in _queries(field, ops):
            with pytest.raises(QueryError):
                service.delete_many(name, query)
            with pytest.raises(QueryError):
                service.update_many(name, query, UPDATE)


@pytest.mark.parametrize("query", MALFORMED_TOP)
@pytest.mark.parametrize("name", ["e", "t"])
class TestTopLevelRejectedWhenBuilt:
    def test_cluster(self, cluster, query, name):
        for call in (
            lambda: cluster.find(name, query),
            lambda: cluster.targeting_for(name, query),
            lambda: cluster.delete_many(name, query),
            lambda: cluster.update_many(name, query, UPDATE),
        ):
            with pytest.raises(QueryError):
                call()

    def test_service(self, service, query, name):
        for call in (
            lambda: service.find(name, query),
            lambda: service.delete_many(name, query),
            lambda: service.update_many(name, query, UPDATE),
        ):
            with pytest.raises(QueryError):
                call()


def test_nothing_was_written(cluster):
    # Every write above was refused before it reached a shard.
    assert cluster.count_documents("t", {"touched": True}) == 0
    assert cluster.count_documents("t", {}) == 60
