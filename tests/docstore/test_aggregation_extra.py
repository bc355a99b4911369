"""Tests for find() projections and explain's rejected plans."""

from repro.docstore.collection import Collection


class TestFindProjection:
    def test_inclusion_projection(self):
        col = Collection("t")
        col.insert_one({"_id": 1, "a": 1, "b": 2, "c": 3})
        out = col.find({}, projection={"a": 1}).to_list()
        assert out == [{"_id": 1, "a": 1}]

    def test_exclusion_projection(self):
        col = Collection("t")
        col.insert_one({"_id": 1, "a": 1, "b": 2})
        out = col.find({}, projection={"b": 0}).to_list()
        assert out == [{"_id": 1, "a": 1}]


class TestExplainRejectedPlans:
    def test_lists_alternatives(self):
        col = Collection("t")
        col.create_index([("a", 1)], name="a_1")
        col.create_index([("a", 1), ("b", 1)], name="a_b")
        col.insert_many({"a": i, "b": i} for i in range(50))
        explain = col.explain({"a": {"$gte": 10, "$lte": 20}})
        winner = explain["queryPlanner"]["winningPlan"]
        rejected = explain["queryPlanner"]["rejectedPlans"]
        assert winner["stage"] == "IXSCAN"
        assert len(rejected) >= 1
        names = {p["indexName"] for p in rejected} | {winner["indexName"]}
        assert {"a_1", "a_b"} <= names

    def test_no_rejected_when_single_option(self):
        col = Collection("t")
        col.insert_many({"_id": i} for i in range(5))
        explain = col.explain({"_id": 3})
        assert explain["queryPlanner"]["rejectedPlans"] == []
