"""Tests for multikey indexes (arrays and LineString 2dsphere cells)."""

import pytest

from repro.docstore.collection import Collection
from repro.docstore.index import Index, IndexDefinition
from repro.errors import IndexError_
from repro.reference import reference_matches


class TestArrayMultikey:
    def test_one_entry_per_element(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        idx.insert_document(1, {"tags": ["a", "b", "c"]})
        assert len(idx.tree) == 3
        assert idx.is_multikey()

    def test_duplicate_elements_single_entry(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        idx.insert_document(1, {"tags": ["a", "a", "b"]})
        assert len(idx.tree) == 2

    def test_empty_array_indexes_null(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        idx.insert_document(1, {"tags": []})
        assert len(idx.tree) == 1

    def test_remove_clears_all_entries(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        doc = {"tags": ["a", "b", "c"]}
        idx.insert_document(1, doc)
        idx.remove_document(1, doc)
        assert len(idx.tree) == 0

    def test_two_array_fields_rejected(self):
        idx = Index(IndexDefinition.from_spec([("a", 1), ("b", 1)]))
        with pytest.raises(IndexError_):
            idx.insert_document(1, {"a": [1], "b": [2]})

    def test_unique_multikey_rejected(self):
        idx = Index(IndexDefinition.from_spec([("a", 1)], unique=True))
        with pytest.raises(IndexError_):
            idx.insert_document(1, {"a": [1, 2]})

    def test_compound_array_plus_scalar(self):
        idx = Index(IndexDefinition.from_spec([("cells", 1), ("d", 1)]))
        idx.insert_document(1, {"cells": [10, 20], "d": 5})
        assert len(idx.tree) == 2


@pytest.mark.xfail(
    strict=True,
    reason="the planner intersects both ends of a range on a multikey "
    "field (ROADMAP item 20)",
)
def test_multikey_range_ixscan_keeps_arrays_meeting_each_end_apart():
    # [1, 10] meets $gte 5 with 10 and $lte 6 with 1, so it matches;
    # MongoDB never intersects the two bounds of a multikey field.  The
    # reference shares plan_query, so only the interpreter over every
    # record sees the missing document.
    col = Collection("t")
    col.create_index([("v", 1)], name="v_1")
    col.insert_many([{"_id": 0, "v": [1, 10]}, {"_id": 1, "v": 5}])
    query = {"v": {"$gte": 5, "$lte": 6}}
    result = col.find_with_stats(query, hint="v_1")
    assert result.plan.kind == "IXSCAN"
    expected = [d for d in col.all_documents() if reference_matches(query, d)]
    assert result.documents == expected


class TestIsMultikeyTracksContent:
    """is_multikey() is a maintained count, not a walk over the records."""

    def test_false_again_after_the_last_array_document_is_removed(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        docs = {1: {"tags": ["a", "b"]}, 2: {"tags": "c"}, 3: {"tags": [1, 2]}}
        for rid, doc in docs.items():
            idx.insert_document(rid, doc)
        assert idx.is_multikey()
        idx.remove_document(1, docs[1])
        assert idx.is_multikey()  # rid 3 still expands to two keys
        idx.remove_document(2, docs[2])
        idx.remove_document(3, docs[3])
        assert not idx.is_multikey()

    def test_single_element_and_empty_arrays_are_not_multikey(self):
        idx = Index(IndexDefinition.from_spec([("tags", 1)]))
        idx.insert_document(1, {"tags": ["a"]})
        idx.insert_document(2, {"tags": []})
        assert not idx.is_multikey()

    def test_update_many_set_back_to_scalar(self):
        col = Collection("t")
        col.create_index([("tags", 1)], name="tags_1")
        col.insert_many({"_id": i, "tags": i} for i in range(5))
        index = col.get_index("tags_1")
        assert not index.is_multikey()
        col.update_many({"_id": 2}, {"$set": {"tags": [7, 8, 9]}})
        assert index.is_multikey()
        col.update_many({"_id": 2}, {"$set": {"tags": 7}})
        assert not index.is_multikey()
        col.update_many({"_id": 3}, {"$unset": {"tags": ""}})
        col.update_many({"_id": 3}, {"$push": {"tags": 1}})  # [1]
        col.update_many({"_id": 3}, {"$push": {"tags": 2}})  # [1, 2]
        assert index.is_multikey()
        assert col.delete_many({"_id": 3}) == 1
        assert not index.is_multikey()

    def test_failed_unique_insert_does_not_leak_a_count(self):
        idx = Index(IndexDefinition.from_spec([("a", 1)], unique=True))
        with pytest.raises(IndexError_):
            idx.insert_document(1, {"a": [1, 2]})
        assert not idx.is_multikey()


class TestMultikeyQueries:
    def test_range_scan_finds_any_element(self):
        col = Collection("t")
        col.create_index([("cells", 1)], name="cells_1")
        col.insert_one({"_id": 1, "cells": [5, 100]})
        col.insert_one({"_id": 2, "cells": [200, 300]})
        result = col.find_with_stats(
            {"cells": {"$gte": 90, "$lte": 110}}, hint="cells_1"
        )
        assert [d["_id"] for d in result] == [1]
        assert result.plan.kind == "IXSCAN"

    def test_no_duplicate_results_when_multiple_elements_match(self):
        col = Collection("t")
        col.create_index([("cells", 1)], name="cells_1")
        col.insert_one({"_id": 1, "cells": [10, 11, 12]})
        result = col.find_with_stats(
            {"cells": {"$gte": 0, "$lte": 100}}, hint="cells_1"
        )
        assert len(result) == 1

    def test_or_ranges_over_array(self):
        # The trajectory query pattern: $or of cell ranges on an array.
        col = Collection("t")
        col.create_index([("cells", 1), ("d", 1)], name="cells_d")
        col.insert_one({"_id": 1, "cells": [5, 50], "d": 1})
        col.insert_one({"_id": 2, "cells": [500], "d": 1})
        q = {
            "$or": [
                {"cells": {"$gte": 0, "$lte": 10}},
                {"cells": {"$gte": 400, "$lte": 600}},
            ],
            "d": 1,
        }
        result = col.find_with_stats(q, hint="cells_d")
        assert sorted(d["_id"] for d in result) == [1, 2]


class TestLineString2dsphere:
    def _doc(self, coords):
        return {
            "route": {"type": "LineString", "coordinates": coords},
        }

    def test_linestring_indexes_multiple_cells(self):
        idx = Index(
            IndexDefinition.from_spec([("route", "2dsphere")]),
        )
        # A long line crosses many 26-bit GeoHash cells.
        idx.insert_document(1, self._doc([[23.0, 38.0], [24.0, 38.0]]))
        assert len(idx.tree) > 5
        assert idx.is_multikey()

    def test_short_line_fewer_cells(self):
        idx = Index(IndexDefinition.from_spec([("route", "2dsphere")]))
        idx.insert_document(1, self._doc([[23.0, 38.0], [23.001, 38.0]]))
        short_cells = len(idx.tree)
        idx.insert_document(2, self._doc([[23.0, 38.0], [23.5, 38.0]]))
        assert len(idx.tree) - short_cells > short_cells

    def test_geointersects_query_via_index(self):
        col = Collection("t")
        col.create_index([("route", "2dsphere")], name="route_2d")
        col.insert_one(
            {"_id": 1, **self._doc([[23.0, 38.0], [24.0, 38.0]])}
        )
        col.insert_one(
            {"_id": 2, **self._doc([[10.0, 50.0], [11.0, 50.0]])}
        )
        q = {
            "route": {
                "$geoIntersects": {
                    "$geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [
                                [23.4, 37.9],
                                [23.6, 37.9],
                                [23.6, 38.1],
                                [23.4, 38.1],
                                [23.4, 37.9],
                            ]
                        ],
                    }
                }
            }
        }
        result = col.find_with_stats(q)
        assert [d["_id"] for d in result] == [1]

    def test_geowithin_requires_full_containment(self):
        from repro.docstore.matcher import matches

        inside = self._doc([[23.1, 38.0], [23.2, 38.05]])
        crossing = self._doc([[23.1, 38.0], [30.0, 40.0]])
        q = {
            "route": {
                "$geoWithin": {"$box": [[23.0, 37.9], [23.5, 38.2]]}
            }
        }
        assert matches(q, inside)
        assert not matches(q, crossing)
