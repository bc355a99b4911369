"""Tests for the extended update operators."""

import pytest

from repro.docstore.collection import Collection
from repro.docstore.lsm import DurabilityConfig
from repro.errors import DocumentStoreError


def col_with(doc):
    col = Collection("t")
    col.insert_one(doc)
    return col


class TestIncMul:
    def test_inc(self):
        col = col_with({"_id": 1, "n": 10})
        col.update_many({}, {"$inc": {"n": 5}})
        assert col.find_one({})["n"] == 15

    def test_inc_negative(self):
        col = col_with({"_id": 1, "n": 10})
        col.update_many({}, {"$inc": {"n": -3}})
        assert col.find_one({})["n"] == 7

    def test_inc_missing_starts_at_zero(self):
        col = col_with({"_id": 1})
        col.update_many({}, {"$inc": {"n": 4}})
        assert col.find_one({})["n"] == 4

    def test_mul(self):
        col = col_with({"_id": 1, "n": 6})
        col.update_many({}, {"$mul": {"n": 2}})
        assert col.find_one({})["n"] == 12

    def test_inc_nested_path(self):
        col = col_with({"_id": 1, "stats": {"hits": 1}})
        col.update_many({}, {"$inc": {"stats.hits": 1}})
        assert col.find_one({})["stats"]["hits"] == 2


class TestMinMax:
    def test_min_lowers(self):
        col = col_with({"_id": 1, "n": 10})
        col.update_many({}, {"$min": {"n": 5}})
        assert col.find_one({})["n"] == 5

    def test_min_keeps_lower(self):
        col = col_with({"_id": 1, "n": 3})
        col.update_many({}, {"$min": {"n": 5}})
        assert col.find_one({})["n"] == 3

    def test_max_raises(self):
        col = col_with({"_id": 1, "n": 10})
        col.update_many({}, {"$max": {"n": 20}})
        assert col.find_one({})["n"] == 20

    def test_min_on_missing_sets(self):
        col = col_with({"_id": 1})
        col.update_many({}, {"$min": {"n": 5}})
        assert col.find_one({})["n"] == 5


class TestPush:
    def test_appends(self):
        col = col_with({"_id": 1, "tags": ["a"]})
        col.update_many({}, {"$push": {"tags": "b"}})
        assert col.find_one({})["tags"] == ["a", "b"]

    def test_creates_array(self):
        col = col_with({"_id": 1})
        col.update_many({}, {"$push": {"tags": "a"}})
        assert col.find_one({})["tags"] == ["a"]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_onto_a_non_array_raises_and_keeps_earlier_updates(
        self, durable, tmp_path
    ):
        config = DurabilityConfig(directory=str(tmp_path), compaction=False)
        col = Collection("t", durability=config if durable else None)
        col.create_index([("n", 1)], name="n_1")
        col.insert_many(
            [{"_id": 1, "n": [1]}, {"_id": 2, "n": 5}, {"_id": 3, "n": [3]}]
        )
        with pytest.raises(DocumentStoreError, match="array"):
            col.update_many({}, {"$set": {"seen": True}, "$push": {"n": 7}})
        expected = [
            {"_id": 1, "n": [1, 7], "seen": True},
            {"_id": 2, "n": 5},  # the failing document is left as it was
            {"_id": 3, "n": [3]},
        ]
        assert list(col.find({})) == expected
        assert [d["_id"] for d in col.find_with_stats({"n": 7}, hint="n_1")] == [1]
        assert [d["_id"] for d in col.find_with_stats({"n": 5}, hint="n_1")] == [2]
        if durable:
            col.close()
            reopened = Collection("t", durability=config)
            assert sorted(reopened.find({}), key=lambda d: d["_id"]) == expected
            reopened.close()


class TestUnset:
    def test_dotted_path_removes_the_nested_field_and_its_index_key(self):
        col = Collection("t")
        col.create_index([("meta.x", 1)], name="mx_1")
        col.insert_one({"_id": 1, "meta": {"x": 5, "y": 6}})
        assert col.update_many({"_id": 1}, {"$unset": {"meta.x": ""}}) == 1
        assert col.find_one({}) == {"_id": 1, "meta": {"y": 6}}
        assert len(col.find_with_stats({"meta.x": 5}, hint="mx_1")) == 0
        # A missing field indexes as null, as in MongoDB.
        assert len(col.find_with_stats({"meta.x": None}, hint="mx_1")) == 1

    def test_array_element_is_set_to_null(self):
        col = col_with({"_id": 1, "tags": ["a", "b", "c"]})
        col.update_many({}, {"$unset": {"tags.1": ""}})
        assert col.find_one({})["tags"] == ["a", None, "c"]

    def test_results_follow_the_shape_after_unset(self):
        col = col_with({"_id": 1, "meta": {"x": [1, 2], "y": {"z": 1}}})
        col.update_many({}, {"$unset": {"meta.x": "", "meta.y": ""}})
        col.update_many({}, {"$set": {"meta.w": [3]}})
        result = col.find_one({})
        assert result == {"_id": 1, "meta": {"w": [3]}}
        result["meta"]["w"].append(4)
        assert col.find_one({}) == {"_id": 1, "meta": {"w": [3]}}


class TestIndexMaintenance:
    def test_inc_reindexes(self):
        col = Collection("t")
        col.create_index([("n", 1)], name="n_1")
        col.insert_one({"_id": 1, "n": 10})
        col.update_many({}, {"$inc": {"n": 90}})
        assert len(col.find_with_stats({"n": {"$gte": 99}}, hint="n_1")) == 1
        assert len(col.find_with_stats({"n": {"$lte": 50}}, hint="n_1")) == 0

    def test_combined_operators(self):
        col = col_with({"_id": 1, "a": 1, "b": 5, "junk": True})
        col.update_many(
            {},
            {
                "$set": {"c": "x"},
                "$inc": {"a": 1},
                "$max": {"b": 9},
                "$unset": {"junk": ""},
            },
        )
        doc = col.find_one({})
        assert doc["a"] == 2 and doc["b"] == 9 and doc["c"] == "x"
        assert "junk" not in doc

    @pytest.mark.parametrize(
        "update",
        [
            {"$set": {"n": 5}, "$push": {"n": 7}},
            {"$set": {"meta.x": 1}, "$unset": {"meta": ""}},
        ],
        ids=["same-path", "prefix"],
    )
    def test_conflicting_paths_rejected_before_any_change(self, update):
        col = col_with({"_id": 1, "n": [1], "meta": {"x": 0}})
        with pytest.raises(DocumentStoreError, match="conflict"):
            col.update_many({}, update)
        assert col.find_one({}) == {"_id": 1, "n": [1], "meta": {"x": 0}}
        assert len(col.find_with_stats({"_id": 1}, hint="_id_")) == 1

    def test_unknown_operator_rejected(self):
        col = col_with({"_id": 1})
        with pytest.raises(DocumentStoreError):
            col.update_many({}, {"$rename": {"a": "b"}})
