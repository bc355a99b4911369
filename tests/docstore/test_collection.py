"""Tests for the Collection facade."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.bson import ObjectId
from repro.docstore.collection import Collection
from repro.docstore.matcher import matches
from repro.errors import DocumentStoreError, DuplicateKeyError, IndexError_

UTC = dt.timezone.utc


class TestInsert:
    def test_assigns_objectid(self):
        col = Collection("t")
        _id = col.insert_one({"a": 1})
        assert isinstance(_id, ObjectId)
        assert len(col) == 1

    def test_preserves_explicit_id(self):
        col = Collection("t")
        assert col.insert_one({"_id": 42, "a": 1}) == 42

    def test_duplicate_id_rejected(self):
        col = Collection("t")
        col.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            col.insert_one({"_id": 1})

    def test_insert_many(self):
        col = Collection("t")
        ids = col.insert_many({"i": i} for i in range(10))
        assert len(ids) == 10
        assert len(col) == 10

    def test_insert_does_not_alias_caller_document(self):
        col = Collection("t")
        doc = {"a": 1}
        col.insert_one(doc)
        assert "_id" not in doc  # caller's dict untouched


class TestBulkLoad:
    def docs(self, n=50):
        return [{"_id": i, "a": i % 7, "b": "x%d" % i} for i in range(n)]

    def test_equals_insert_many_on_an_empty_collection(self):
        bulk = Collection("t", btree_order=4)
        bulk.create_index([("a", 1), ("b", 1)], name="ab")
        bulk.bulk_load(self.docs())
        live = Collection("t", btree_order=4)
        live.create_index([("a", 1), ("b", 1)], name="ab")
        live.insert_many(self.docs())
        assert list(bulk.all_documents()) == list(live.all_documents())
        for definition in live.index_definitions():
            name = definition.name
            tree = bulk.get_index(name).tree
            tree.validate()
            assert list(tree.scan_all()) == list(
                live.get_index(name).tree.scan_all()
            )
        query = {"a": {"$gte": 2, "$lte": 4}}
        got, want = (c.find_with_stats(query, hint="ab") for c in (bulk, live))
        assert got.documents == want.documents
        assert got.stats.as_dict() == want.stats.as_dict()
        assert bulk.mutation_count == 2  # the DDL and the load

    def test_then_behaves_like_any_collection(self):
        col = Collection("t", btree_order=4)
        col.bulk_load(self.docs())
        col.insert_one({"_id": 50, "a": 1})
        assert col.delete_many({"a": 1}) == 8
        with pytest.raises(DuplicateKeyError):
            col.insert_one({"_id": 3})
        assert len(col) == 43
        col.get_index("_id_").tree.validate()

    def test_duplicate_key_leaves_the_collection_empty(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="a_1")
        with pytest.raises(DuplicateKeyError):
            col.bulk_load(self.docs() + [{"_id": 7, "a": 0}])
        assert len(col) == 0
        assert all(
            len(col.get_index(d.name)) == 0 for d in col.index_definitions()
        )
        col.bulk_load(self.docs())
        assert len(col) == 50

    def test_needs_an_empty_collection(self):
        col = Collection("t")
        col.insert_one({"_id": 1})
        with pytest.raises(DocumentStoreError):
            col.bulk_load([{"_id": 2}])


class TestFind:
    def test_find_returns_copies(self):
        col = Collection("t")
        col.insert_one({"_id": 1, "a": {"b": 1}})
        found = col.find({"_id": 1}).to_list()[0]
        found["a"]["b"] = 999
        assert col.find({"_id": 1}).to_list()[0]["a"]["b"] == 1

    def test_find_by_id_uses_id_index(self):
        col = Collection("t")
        for i in range(100):
            col.insert_one({"_id": i})
        result = col.find_with_stats({"_id": 50})
        assert result.plan.kind == "IXSCAN"
        assert result.plan.index_name == "_id_"
        assert result.stats.keys_examined <= 2

    def test_find_empty_query_returns_all(self):
        col = Collection("t")
        col.insert_many({"i": i} for i in range(5))
        assert len(col.find().to_list()) == 5

    def test_cursor_modifiers(self):
        col = Collection("t")
        col.insert_many({"i": i} for i in range(10))
        out = col.find().sort({"i": -1}).skip(2).limit(3).to_list()
        assert [d["i"] for d in out] == [7, 6, 5]

    def test_count_documents(self):
        col = Collection("t")
        col.insert_many({"i": i} for i in range(10))
        assert col.count_documents() == 10
        assert col.count_documents({"i": {"$gte": 5}}) == 5

    def test_find_one_none_when_empty(self):
        col = Collection("t")
        assert col.find({"a": 1}).to_list() == []

    def test_2dsphere_finds_a_point_one_ulp_below_a_cell_edge(self):
        # 12.45849609375 is a GeoHash row edge; the point sits one ulp
        # below it, on the query polygon's lower edge.
        lat = 12.458496093749998
        point = {"type": "Point", "coordinates": [10.0, lat]}
        doc = {"_id": 1, "location": point}
        ring = [[9.0, lat], [11.0, lat], [11.0, 13.0], [9.0, 13.0], [9.0, lat]]
        query = {
            "location": {
                "$geoWithin": {
                    "$geometry": {"type": "Polygon", "coordinates": [ring]}
                }
            }
        }
        plain, indexed = Collection("plain"), Collection("indexed")
        indexed.create_index([("location", "2dsphere")])
        for col in (plain, indexed):
            col.insert_one(doc)
        scanned = plain.find_with_stats(query)
        found = indexed.find_with_stats(query)
        assert scanned.stats.stage == "COLLSCAN"
        assert found.stats.stage == "IXSCAN"
        assert found.documents == scanned.documents == [doc]

    def test_max_geo_ranges_below_one_is_rejected(self):
        # max_geo_ranges=0 used to mean the uncapped covering.
        col = Collection("t")
        col.create_index([("location", "2dsphere")])
        col.insert_one({"location": {"type": "Point", "coordinates": [1, 1]}})
        box = {"$geoWithin": {"$box": [[0, 0], [2, 2]]}}
        assert len(col.find_with_stats({"location": box}).documents) == 1
        with pytest.raises(ValueError, match="max_ranges"):
            col.find_with_stats({"location": box}, max_geo_ranges=0)


class TestDeleteUpdate:
    def test_delete_many(self):
        col = Collection("t")
        col.create_index([("i", 1)])
        col.insert_many({"i": i} for i in range(10))
        assert col.delete_many({"i": {"$lt": 4}}) == 4
        assert len(col) == 6
        # Index is maintained: a find via the index agrees.
        assert len(col.find_with_stats({"i": {"$gte": 0, "$lte": 9}})) == 6

    def test_update_many_set(self):
        col = Collection("t")
        col.create_index([("i", 1)])
        col.insert_many({"i": i} for i in range(5))
        assert col.update_many({"i": {"$lte": 1}}, {"$set": {"flag": True}}) == 2
        assert col.count_documents({"flag": True}) == 2

    def test_update_reindexes(self):
        col = Collection("t")
        col.create_index([("i", 1)], name="i_1")
        col.insert_one({"i": 1})
        col.update_many({"i": 1}, {"$set": {"i": 99}})
        result = col.find_with_stats({"i": {"$gte": 90, "$lte": 100}}, hint="i_1")
        assert len(result) == 1

    def test_update_values_are_copied_per_document(self):
        # One $set value, many matched documents: each must store its
        # own copy, or a later dotted update of one document rewrites
        # the caller's value and every sibling behind the index's back.
        col = Collection("t")
        col.insert_many({"_id": k, "k": k} for k in range(3))
        col.create_index([("meta.x", 1)])
        value = {"x": 1}
        col.update_many({}, {"$set": {"meta": value}})
        col.update_many({"k": 0}, {"$set": {"meta.x": 2}})
        assert value == {"x": 1}
        assert sorted((d["_id"], d["meta"]) for d in col.find({})) == [
            (0, {"x": 2}),
            (1, {"x": 1}),
            (2, {"x": 1}),
        ]
        assert sorted(d["_id"] for d in col.find({"meta.x": 1})) == [1, 2]
        assert sorted(d["_id"] for d in col.find({"meta.x": 2})) == [0]

    def test_update_unset(self):
        col = Collection("t")
        col.insert_one({"i": 1, "junk": "x"})
        col.update_many({}, {"$unset": {"junk": ""}})
        assert "junk" not in col.find({}).to_list()[0]

    def test_unknown_update_operator_rejected(self):
        col = Collection("t")
        col.insert_one({"i": 1})
        from repro.errors import DocumentStoreError

        with pytest.raises(DocumentStoreError):
            col.update_many({}, {"$rename": {"i": "j"}})


class TestIndexManagement:
    def test_create_and_list(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="a_1")
        assert {d.name for d in col.index_definitions()} == {"_id_", "a_1"}

    def test_backfills_existing_documents(self):
        col = Collection("t")
        col.insert_many({"i": i} for i in range(20))
        col.create_index([("i", 1)], name="i_1")
        result = col.find_with_stats({"i": {"$gte": 5, "$lte": 9}}, hint="i_1")
        assert len(result) == 5

    def test_failed_unique_backfill_registers_nothing(self):
        col = Collection("t")
        col.insert_many({"i": i % 3} for i in range(6))
        with pytest.raises(DuplicateKeyError):
            col.create_index([("i", 1)], name="i_1", unique=True)
        assert [d.name for d in col.index_definitions()] == ["_id_"]

    def test_duplicate_name_rejected(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="x")
        with pytest.raises(IndexError_):
            col.create_index([("b", 1)], name="x")

    def test_drop_index(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="x")
        col.drop_index("x")
        assert "x" not in [d.name for d in col.index_definitions()]

    def test_cannot_drop_id_index(self):
        col = Collection("t")
        with pytest.raises(IndexError_):
            col.drop_index("_id_")

    def test_drop_missing_rejected(self):
        col = Collection("t")
        with pytest.raises(IndexError_):
            col.drop_index("nope")


class TestExplainAndStats:
    def test_explain_structure(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="a_1")
        col.insert_many({"a": i} for i in range(10))
        explain = col.explain({"a": {"$gte": 3}})
        assert explain["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"
        assert explain["executionStats"]["nReturned"] == 7

    def test_stats_keys(self):
        col = Collection("t")
        col.insert_one({"a": 1})
        stats = col.stats()
        assert stats["count"] == 1
        assert stats["size"] > 0
        assert stats["nindexes"] == 1
        assert "_id_" in stats["indexSizes"]


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=80
    ),
    lo=st.integers(min_value=0, max_value=30),
    hi=st.integers(min_value=0, max_value=30),
)
def test_property_index_find_matches_brute_force(values, lo, hi):
    """Range finds through the index equal naive filtering."""
    if lo > hi:
        lo, hi = hi, lo
    col = Collection("t")
    col.create_index([("v", 1)], name="v_1")
    col.insert_many({"v": v} for v in values)
    q = {"v": {"$gte": lo, "$lte": hi}}
    via_index = col.find_with_stats(q, hint="v_1")
    assert via_index.plan.kind == "IXSCAN"
    expected = [v for v in values if lo <= v <= hi]
    assert sorted(d["v"] for d in via_index) == sorted(expected)
