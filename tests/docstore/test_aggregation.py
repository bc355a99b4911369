"""Tests for the aggregation pipeline: $project and $bucketAuto semantics."""

import datetime as dt

import pytest

from repro.docstore.aggregation import evaluate_expression, run_pipeline
from repro.docstore.collection import Collection
from repro.errors import AggregationError

UTC = dt.timezone.utc

DOCS = [
    {"i": i, "group": "even" if i % 2 == 0 else "odd", "score": i * 1.5}
    for i in range(10)
]


class TestExpressions:
    def test_field_path(self):
        assert evaluate_expression("$i", {"i": 7}) == 7

    def test_nested_field_path(self):
        assert evaluate_expression("$a.b", {"a": {"b": 3}}) == 3

    def test_missing_field_is_none(self):
        assert evaluate_expression("$zzz", {}) is None

    def test_literal(self):
        assert evaluate_expression(5, {}) == 5
        assert evaluate_expression({"$literal": "$i"}, {"i": 1}) == "$i"

    def test_unknown_operator(self):
        with pytest.raises(AggregationError):
            evaluate_expression({"$add": [2, 3]}, {})


class TestStages:
    def test_project_inclusion(self):
        out = run_pipeline([{"_id": 1, "a": 1, "b": 2}], [{"$project": {"a": 1}}])
        assert out == [{"_id": 1, "a": 1}]

    def test_project_exclusion(self):
        out = run_pipeline(
            [{"_id": 1, "a": 1, "b": 2}], [{"$project": {"b": 0}}]
        )
        assert out == [{"_id": 1, "a": 1}]

    def test_project_computed(self):
        out = run_pipeline(
            [{"_id": 1, "a": 2}],
            [{"$project": {"copy": "$a", "tag": {"$literal": "$a"}}}],
        )
        assert out[0] == {"_id": 1, "copy": 2, "tag": "$a"}

    def test_unknown_stage(self):
        with pytest.raises(AggregationError):
            run_pipeline(DOCS, [{"$lookup": {}}])

    def test_stage_must_be_single_key(self):
        with pytest.raises(AggregationError):
            run_pipeline(
                DOCS, [{"$project": {"i": 1}, "$bucketAuto": {}}]
            )


class TestBucketAuto:
    def test_even_counts(self):
        docs = [{"v": i} for i in range(100)]
        out = run_pipeline(
            docs, [{"$bucketAuto": {"groupBy": "$v", "buckets": 4}}]
        )
        assert len(out) == 4
        assert [b["count"] for b in out] == [25, 25, 25, 25]

    def test_boundaries_tile(self):
        docs = [{"v": i} for i in range(100)]
        out = run_pipeline(
            docs, [{"$bucketAuto": {"groupBy": "$v", "buckets": 4}}]
        )
        for a, b in zip(out, out[1:]):
            assert a["_id"]["max"] == b["_id"]["min"]
        assert out[0]["_id"]["min"] == 0
        assert out[-1]["_id"]["max"] == 99  # last max inclusive

    def test_never_splits_equal_values(self):
        # 50 copies of one value cannot be divided: MongoDB keeps them
        # in one bucket, possibly producing fewer buckets than asked.
        docs = [{"v": 1}] * 50 + [{"v": 2}] * 2
        out = run_pipeline(
            docs, [{"$bucketAuto": {"groupBy": "$v", "buckets": 4}}]
        )
        assert len(out) == 2
        assert out[0]["count"] == 50

    def test_skewed_counts_uneven_but_complete(self):
        docs = [{"v": 1}] * 30 + [{"v": i} for i in range(2, 32)]
        out = run_pipeline(
            docs, [{"$bucketAuto": {"groupBy": "$v", "buckets": 4}}]
        )
        assert sum(b["count"] for b in out) == 60

    def test_dates_group_correctly(self):
        docs = [
            {"d": dt.datetime(2018, 7, 1, tzinfo=UTC) + dt.timedelta(days=i)}
            for i in range(30)
        ]
        out = run_pipeline(
            docs, [{"$bucketAuto": {"groupBy": "$d", "buckets": 3}}]
        )
        assert len(out) == 3
        assert out[0]["_id"]["min"] < out[1]["_id"]["min"]

    def test_null_group_by_rejected(self):
        with pytest.raises(AggregationError):
            run_pipeline([{"v": None}], [{"$bucketAuto": {"groupBy": "$v", "buckets": 2}}])

    def test_requires_positive_buckets(self):
        with pytest.raises(AggregationError):
            run_pipeline(DOCS, [{"$bucketAuto": {"groupBy": "$i", "buckets": 0}}])

    def test_output_option_rejected(self):
        # Buckets always carry their count and nothing else.
        with pytest.raises(AggregationError):
            run_pipeline(
                DOCS,
                [
                    {
                        "$bucketAuto": {
                            "groupBy": "$i",
                            "buckets": 2,
                            "output": {"n": {"$sum": 1}},
                        }
                    }
                ],
            )

    def test_empty_input(self):
        assert run_pipeline([], [{"$bucketAuto": {"groupBy": "$v", "buckets": 3}}]) == []


class TestCollectionAggregate:
    def test_collection_entry_point(self):
        col = Collection("t")
        col.insert_many(DOCS)
        out = col.aggregate(
            [{"$bucketAuto": {"groupBy": "$i", "buckets": 2}}]
        )
        assert out == [
            {"_id": {"min": 0, "max": 5}, "count": 5},
            {"_id": {"min": 5, "max": 9}, "count": 5},
        ]

    def test_does_not_mutate_documents(self):
        col = Collection("t")
        col.insert_one({"a": {"b": 1}})
        out = col.aggregate([{"$project": {"a": 1}}])
        out[0]["a"]["b"] = 999
        assert col.find({}).to_list()[0]["a"]["b"] == 1
