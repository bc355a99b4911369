"""Tests for the one single-path $or fold and its compiled interval set."""

from repro.docstore.index import SCAN_TOP
from repro.docstore.matcher import Matcher
from repro.docstore.planner import fold_or
from repro.reference import reference_matches


class TestCompilation:
    def test_compiles_range_clauses(self):
        clauses = [
            {"h": {"$gte": 1, "$lte": 5}},
            {"h": {"$gte": 10, "$lte": 20}},
        ]
        folded = fold_or(clauses)
        assert folded is not None and folded.exact
        assert folded.path == "h"
        assert folded.spans == [True, True]

    def test_compiles_in_clause(self):
        folded = fold_or([{"h": {"$in": [3, 7, 9]}}])
        assert folded is not None and folded.exact
        assert len(folded.intervals) == 3
        assert folded.spans == [False, False, False]

    def test_rejects_multi_path(self):
        assert fold_or([{"a": {"$gte": 1, "$lte": 2}}, {"b": {"$gte": 1, "$lte": 2}}]) is None

    def test_non_operator_clause_is_an_exact_point(self):
        folded = fold_or([{"a": 5}])
        assert folded.exact
        assert [iv.is_point for iv in folded.intervals] == [True]

    def test_rejects_unsupported_ops(self):
        assert fold_or([{"a": {"$ne": 5}}]) is None

    def test_rejects_half_open(self):
        # Bounds only, no interval set: the bound runs to the scan
        # sentinel, which admits other BSON types that the
        # type-bracketed $gte rejects.
        folded = fold_or([{"a": {"$gte": 5}}])
        assert not folded.exact
        assert folded.intervals[0].hi == SCAN_TOP

    def test_rejects_null_points(self):
        # Bounds only: null also matches a missing field, which no
        # interval holds.
        folded = fold_or([{"a": {"$in": [None]}}])
        assert not folded.exact
        assert len(folded.intervals) == 1

    def test_rejects_cross_bracket_range(self):
        folded = fold_or([{"a": {"$gte": 5, "$lte": "z"}}])
        assert not folded.exact
        assert len(folded.intervals) == 1

    def test_merges_overlaps(self):
        folded = fold_or(
            [
                {"h": {"$gte": 0, "$lte": 100}},
                {"h": {"$gte": 50, "$lte": 60}},
            ]
        )
        assert len(folded.intervals) == 1


class TestSemanticsMatchGenericPath:
    """The interval set must agree with clause-by-clause evaluation."""

    CLAUSES = [
        {"h": {"$gte": 10, "$lte": 20}},
        {"h": {"$gt": 30, "$lt": 40}},
        {"h": {"$in": [50, 55]}},
        {"h": {"$gte": 0, "$lte": 100}},  # overlaps everything
    ]

    def generic(self, doc):
        return any(reference_matches(clause, doc) for clause in self.CLAUSES)

    def test_agreement_over_domain(self):
        matcher = Matcher({"$or": self.CLAUSES})
        for value in list(range(-5, 120)) + [10.5, 29.99, 30.0, 40.0]:
            doc = {"h": value}
            assert matcher.matches(doc) == self.generic(doc), value

    def test_arrays_any_element(self):
        matcher = Matcher({"$or": [{"h": {"$gte": 10, "$lte": 20}}]})
        assert matcher.matches({"h": [1, 15]})
        assert not matcher.matches({"h": [1, 2]})

    def test_missing_field_no_match(self):
        matcher = Matcher({"$or": [{"h": {"$gte": 10, "$lte": 20}}]})
        assert not matcher.matches({"other": 1})

    def test_cross_type_values_no_match(self):
        matcher = Matcher({"$or": [{"h": {"$gte": 10, "$lte": 20}}]})
        assert not matcher.matches({"h": "15"})

    def test_exclusive_bounds(self):
        matcher = Matcher({"$or": [{"h": {"$gt": 10, "$lt": 20}}]})
        assert not matcher.matches({"h": 10})
        assert matcher.matches({"h": 11})
        assert not matcher.matches({"h": 20})

    def test_combined_with_other_predicates(self):
        # The paper's query shape: $or AND date range.
        matcher = Matcher(
            {
                "$or": [{"h": {"$gte": 10, "$lte": 20}}],
                "flag": True,
            }
        )
        assert matcher.matches({"h": 15, "flag": True})
        assert not matcher.matches({"h": 15, "flag": False})
        assert not matcher.matches({"h": 5, "flag": True})

    def test_string_ranges(self):
        # The ST-Hash string form uses the same machinery.
        matcher = Matcher(
            {"$or": [{"s": {"$gte": "2018aa", "$lte": "2018zz"}}]}
        )
        assert matcher.matches({"s": "2018mm"})
        assert not matcher.matches({"s": "2019aa"})

    def test_large_or_performance_shape(self):
        # 5,000 clauses compile once; matching stays usable.
        clauses = [
            {"h": {"$gte": i * 10, "$lte": i * 10 + 5}} for i in range(5000)
        ]
        matcher = Matcher({"$or": clauses})
        assert matcher.matches({"h": 42003})
        assert not matcher.matches({"h": 42007})
