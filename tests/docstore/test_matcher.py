"""Tests for the query matcher, each verdict held to the reference
interpreter's."""

import datetime as dt

import pytest

from repro.docstore.matcher import Matcher, is_operator_expression
from repro.errors import QueryError
from repro.reference import reference_matches


def matches(query, document):
    verdict = Matcher(query).matches(document)
    assert verdict == reference_matches(query, document), (query, document)
    return verdict

UTC = dt.timezone.utc
DOC = {
    "name": "alpha",
    "value": 10,
    "tags": ["red", "blue"],
    "nested": {"level": 3},
    "nothing": None,
    "location": {"type": "Point", "coordinates": [23.73, 37.98]},
    "date": dt.datetime(2018, 8, 15, tzinfo=UTC),
}


class TestEquality:
    def test_implicit_eq(self):
        assert matches({"name": "alpha"}, DOC)
        assert not matches({"name": "beta"}, DOC)

    def test_explicit_eq(self):
        assert matches({"value": {"$eq": 10}}, DOC)
        assert matches({"value": {"$eq": 10.0}}, DOC)

    def test_dotted_path(self):
        assert matches({"nested.level": 3}, DOC)
        assert not matches({"nested.level": 4}, DOC)

    def test_array_any_element(self):
        assert matches({"tags": "red"}, DOC)
        assert not matches({"tags": "green"}, DOC)

    def test_whole_array_equality(self):
        assert matches({"tags": ["red", "blue"]}, DOC)

    def test_null_matches_missing_field(self):
        assert matches({"ghost": None}, DOC)
        assert matches({"nothing": None}, DOC)

    def test_type_bracketing(self):
        assert not matches({"value": "10"}, DOC)


class TestComparisons:
    def test_gt_gte_lt_lte(self):
        assert matches({"value": {"$gt": 9}}, DOC)
        assert not matches({"value": {"$gt": 10}}, DOC)
        assert matches({"value": {"$gte": 10}}, DOC)
        assert matches({"value": {"$lt": 11}}, DOC)
        assert matches({"value": {"$lte": 10}}, DOC)

    def test_range_conjunction(self):
        assert matches({"value": {"$gte": 5, "$lte": 15}}, DOC)
        assert not matches({"value": {"$gte": 11, "$lte": 15}}, DOC)

    def test_date_range(self):
        q = {
            "date": {
                "$gte": dt.datetime(2018, 8, 1, tzinfo=UTC),
                "$lte": dt.datetime(2018, 9, 1, tzinfo=UTC),
            }
        }
        assert matches(q, DOC)

    def test_cross_type_comparison_never_matches(self):
        assert not matches({"name": {"$gt": 5}}, DOC)
        assert not matches({"value": {"$lt": "zzz"}}, DOC)

    def test_missing_field_comparisons(self):
        assert not matches({"ghost": {"$gt": 0}}, DOC)
        assert matches({"ghost": {"$ne": 5}}, DOC)


class TestInNin:
    def test_in(self):
        assert matches({"value": {"$in": [1, 10, 100]}}, DOC)
        assert not matches({"value": {"$in": [1, 2]}}, DOC)

    def test_in_with_array_field(self):
        assert matches({"tags": {"$in": ["green", "blue"]}}, DOC)

    def test_nin(self):
        assert matches({"value": {"$nin": [1, 2]}}, DOC)
        assert not matches({"value": {"$nin": [10]}}, DOC)

    def test_in_requires_array(self):
        with pytest.raises(QueryError):
            matches({"value": {"$in": 10}}, DOC)

    def test_in_null_matches_missing(self):
        assert matches({"ghost": {"$in": [None]}}, DOC)
        assert not matches({"ghost": {"$nin": [None]}}, DOC)


class TestLogical:
    def test_and(self):
        q = {"$and": [{"value": {"$gt": 5}}, {"name": "alpha"}]}
        assert matches(q, DOC)

    def test_or(self):
        q = {"$or": [{"value": 999}, {"name": "alpha"}]}
        assert matches(q, DOC)
        q2 = {"$or": [{"value": 999}, {"name": "zzz"}]}
        assert not matches(q2, DOC)

    def test_nor(self):
        assert matches({"$nor": [{"value": 999}]}, DOC)
        assert not matches({"$nor": [{"value": 10}]}, DOC)

    def test_not(self):
        assert matches({"value": {"$not": {"$gt": 50}}}, DOC)
        assert not matches({"value": {"$not": {"$gt": 5}}}, DOC)

    def test_implicit_top_level_and(self):
        assert matches({"value": 10, "name": "alpha"}, DOC)
        assert not matches({"value": 10, "name": "zzz"}, DOC)

    def test_or_with_sibling_predicates(self):
        # The paper's Hilbert query shape: $or AND other predicates.
        q = {
            "value": {"$gte": 5},
            "$or": [{"name": "alpha"}, {"name": "beta"}],
        }
        assert matches(q, DOC)

    def test_logical_requires_array(self):
        with pytest.raises(QueryError):
            matches({"$or": {"a": 1}}, DOC)


class TestExistsAndMisc:
    def test_exists(self):
        assert matches({"value": {"$exists": True}}, DOC)
        assert matches({"ghost": {"$exists": False}}, DOC)
        assert matches({"nothing": {"$exists": True}}, DOC)
        assert not matches({"ghost": {"$exists": True}}, DOC)

    def test_mod(self):
        assert matches({"value": {"$mod": [3, 1]}}, DOC)
        assert not matches({"value": {"$mod": [3, 0]}}, DOC)

    def test_size(self):
        assert matches({"tags": {"$size": 2}}, DOC)
        assert not matches({"tags": {"$size": 3}}, DOC)

    def test_type(self):
        assert matches({"value": {"$type": "number"}}, DOC)
        assert matches({"name": {"$type": "string"}}, DOC)
        assert matches({"date": {"$type": "date"}}, DOC)

    def test_ne(self):
        assert matches({"value": {"$ne": 11}}, DOC)
        assert not matches({"value": {"$ne": 10}}, DOC)


class TestGeoWithin:
    def _box_query(self, min_lon, min_lat, max_lon, max_lat):
        return {
            "location": {
                "$geoWithin": {
                    "$geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [
                                [min_lon, min_lat],
                                [max_lon, min_lat],
                                [max_lon, max_lat],
                                [min_lon, max_lat],
                                [min_lon, min_lat],
                            ]
                        ],
                    }
                }
            }
        }

    def test_inside(self):
        assert matches(self._box_query(23.0, 37.0, 24.0, 38.5), DOC)

    def test_outside(self):
        assert not matches(self._box_query(0.0, 0.0, 1.0, 1.0), DOC)

    def test_box_operator(self):
        q = {"location": {"$geoWithin": {"$box": [[23.0, 37.0], [24.0, 38.5]]}}}
        assert matches(q, DOC)

    def test_missing_location(self):
        assert not matches(self._box_query(0, 0, 90, 90), {"a": 1})

    def test_non_point_value(self):
        assert not matches(
            self._box_query(0, 0, 90, 90), {"location": "not a point"}
        )

    def test_bad_geo_argument(self):
        with pytest.raises(QueryError):
            matches({"location": {"$geoWithin": {"$weird": 1}}}, DOC)


class TestValidation:
    def test_unsupported_operator_rejected_at_compile(self):
        with pytest.raises(QueryError):
            Matcher({"a": {"$regex": "x"}})

    def test_unsupported_top_level_rejected(self):
        with pytest.raises(QueryError):
            Matcher({"$where": "this.a == 1"})

    def test_non_mapping_query_rejected(self):
        with pytest.raises(QueryError):
            Matcher([("a", 1)])

    def test_is_operator_expression(self):
        assert is_operator_expression({"$gte": 1})
        assert not is_operator_expression({"a": 1})
        assert not is_operator_expression(5)

    def test_empty_query_matches_everything(self):
        assert matches({}, DOC)
        assert matches({}, {})
