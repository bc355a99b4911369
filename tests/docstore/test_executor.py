"""Tests for plan execution and its statistics."""

import datetime as dt
import threading

import pytest

from repro import reference
from repro.docstore import executor
from repro.docstore.collection import Collection
from repro.docstore.index import SCAN_BOTTOM
from repro.docstore.matcher import Matcher, matches
from repro.errors import DocumentStoreError
from repro.reference import reference_find

#: The production loop and the reference loop, called alike.
FIND_PATHS = [Collection.find_with_stats, reference_find]

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


def build_collection(n=300):
    import random

    rng = random.Random(11)
    col = Collection("t")
    col.create_index([("h", 1), ("date", 1)], name="h_date")
    col.create_index([("date", 1)], name="date_1")
    for i in range(n):
        col.insert_one(
            {
                "h": rng.randrange(0, 40),
                "date": T0 + dt.timedelta(hours=rng.uniform(0, 24 * 60)),
                "v": i,
            }
        )
    return col


class TestIndexScanCorrectness:
    def test_agrees_with_brute_force(self):
        col = build_collection()
        q = {
            "h": {"$gte": 5, "$lte": 15},
            "date": {"$gte": T0, "$lte": T0 + dt.timedelta(days=20)},
        }
        result = col.find_with_stats(q)
        brute = [d for d in col.all_documents() if matches(q, d)]
        assert len(result) == len(brute)
        assert result.plan.kind == "IXSCAN"

    def test_or_ranges_agree_with_brute_force(self):
        col = build_collection()
        q = {
            "$or": [
                {"h": {"$gte": 0, "$lte": 3}},
                {"h": {"$gte": 30, "$lte": 35}},
                {"h": {"$in": [17]}},
            ],
            "date": {"$gte": T0, "$lte": T0 + dt.timedelta(days=30)},
        }
        result = col.find_with_stats(q)
        brute = [d for d in col.all_documents() if matches(q, d)]
        assert len(result) == len(brute)

    def test_no_duplicate_results_from_overlapping_intervals(self):
        col = Collection("t")
        col.create_index([("h", 1)], name="h_1")
        col.insert_one({"h": 5})
        q = {"$or": [{"h": {"$gte": 0, "$lte": 10}}, {"h": {"$in": [5]}}]}
        result = col.find_with_stats(q)
        assert len(result) == 1

    def test_exclusive_bounds(self):
        col = Collection("t")
        col.create_index([("v", 1)], name="v_1")
        for v in range(10):
            col.insert_one({"v": v})
        assert len(col.find_with_stats({"v": {"$gt": 3, "$lt": 7}})) == 3
        assert len(col.find_with_stats({"v": {"$gte": 3, "$lte": 7}})) == 5


class TestExecutionStats:
    def test_keys_examined_bounded_by_tree(self):
        col = build_collection(100)
        q = {"h": {"$gte": 0, "$lte": 39}}
        result = col.find_with_stats(q, hint="h_date")
        assert result.stats.keys_examined <= 100 + result.stats.seeks

    def test_narrow_scan_examines_few_keys(self):
        col = build_collection(500)
        q = {
            "h": 5,
            "date": {"$gte": T0, "$lte": T0 + dt.timedelta(days=1)},
        }
        result = col.find_with_stats(q, hint="h_date")
        # ~500/40 docs share h=5; only ~1/60 of dates match.
        assert result.stats.keys_examined < 30

    def test_docs_examined_counts_fetches(self):
        col = build_collection(200)
        q = {
            "h": {"$gte": 0, "$lte": 39},
            "v": {"$gte": 0},  # residual-only predicate
        }
        result = col.find_with_stats(q, hint="h_date")
        assert result.stats.docs_examined >= result.stats.n_returned

    def test_n_returned_matches_len(self):
        col = build_collection(100)
        result = col.find_with_stats({"h": {"$gte": 10, "$lte": 20}})
        assert result.stats.n_returned == len(result)

    def test_collscan_stats(self):
        col = build_collection(50)
        result = col.find_with_stats({"v": {"$gte": 25}})
        assert result.stats.stage == "COLLSCAN"
        assert result.stats.docs_examined == 50
        assert result.stats.keys_examined == 0

    def test_second_field_filtering_via_bounds(self):
        # With a compound (h, date) index, a narrow date bound must
        # reduce keys examined versus no date bound, for the same h.
        col = build_collection(500)
        broad = col.find_with_stats(
            {"h": {"$gte": 5, "$lte": 15}}, hint="h_date"
        )
        narrow = col.find_with_stats(
            {
                "h": {"$gte": 5, "$lte": 15},
                "date": {"$gte": T0, "$lte": T0 + dt.timedelta(days=2)},
            },
            hint="h_date",
        )
        assert narrow.stats.keys_examined < broad.stats.keys_examined

    def test_as_dict(self):
        col = build_collection(10)
        result = col.find_with_stats({"h": {"$gte": 0, "$lte": 39}})
        d = result.stats.as_dict()
        assert set(d) >= {
            "stage",
            "indexName",
            "keysExamined",
            "docsExamined",
            "nReturned",
        }


NAN = float("nan")

#: (documents' ``v`` in insertion order, query) pairs that never
#: returned while a stored NaN had no place in the index's total order.
NAN_REPRODUCERS = [
    ([-1, NAN, None, 1, "a"], {"v": {"$gt": 2.5, "$lte": None}}),
    ([[1, NAN], True, 0.0, -1, NAN], {"v": {"$gt": 0.0, "$lte": False}}),
]


class TestScanAlwaysAdvances:
    @pytest.mark.parametrize("values, query", NAN_REPRODUCERS)
    def test_stored_nan_does_not_spin_the_scan(self, values, query):
        col = Collection("c")
        col.create_index([("v", 1)])
        for i, value in enumerate(values):
            col.insert_one({"_id": i, "v": value})
        results = {}

        def run():
            for find in FIND_PATHS:
                results[find] = find(col, query)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "index scan did not return"
        fast, slow = (results[find] for find in FIND_PATHS)
        assert fast.stats.stage == "IXSCAN"
        assert fast.documents == slow.documents == []
        assert fast.stats.as_dict() == slow.stats.as_dict()

    def test_nan_key_is_found_where_it_sorts(self):
        col = Collection("c")
        col.create_index([("v", 1)])
        for i, value in enumerate([3, NAN, float("-inf"), -2]):
            col.insert_one({"_id": i, "v": value})
        for find in FIND_PATHS:
            below = find(col, {"v": {"$lt": float("-inf")}})
            assert [d["_id"] for d in below.documents] == [1]
            numbers = find(col, {"v": {"$gte": float("-inf")}})
            assert [d["_id"] for d in numbers.documents] == [2, 3, 0]

    @pytest.mark.parametrize("production", [True, False])
    def test_seek_that_does_not_advance_raises(self, monkeypatch, production):
        col = build_collection(20)
        if production:
            # The kernel skips the keys past a field's last interval by
            # seeking to ``prefix + (SCAN_TOP,)``; a top that no longer
            # sorts above every key element makes that target land
            # before the key it skips.
            find = Collection.find_with_stats
            monkeypatch.setattr(executor, "SCAN_TOP", SCAN_BOTTOM)
        else:
            find = reference_find
            monkeypatch.setattr(
                reference._BoundsChecker,
                "check",
                lambda self, key: ("seek", key),
            )
        query = {
            "h": {"$gte": 5, "$lte": 15},
            "date": {"$gte": T0, "$lte": T0 + dt.timedelta(days=10)},
        }
        with pytest.raises(DocumentStoreError, match="cannot advance"):
            find(col, query, hint="h_date")
