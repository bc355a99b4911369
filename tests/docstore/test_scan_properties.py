"""Property-based tests: index scans vs a brute-force oracle."""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.collection import Collection
from repro.reference import reference_matches

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)

doc_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # field a
        st.integers(min_value=0, max_value=40),  # field b
    ),
    min_size=1,
    max_size=120,
)

bound = st.integers(min_value=0, max_value=40)


def build(pairs):
    col = Collection("t")
    col.create_index([("a", 1), ("b", 1)], name="a_b")
    col.insert_many({"a": a, "b": b} for a, b in pairs)
    return col


@settings(max_examples=40, deadline=None)
@given(pairs=doc_strategy, a_lo=bound, a_hi=bound, b_lo=bound, b_hi=bound)
def test_compound_range_scan_matches_oracle(pairs, a_lo, a_hi, b_lo, b_hi):
    if a_lo > a_hi:
        a_lo, a_hi = a_hi, a_lo
    if b_lo > b_hi:
        b_lo, b_hi = b_hi, b_lo
    col = build(pairs)
    q = {"a": {"$gte": a_lo, "$lte": a_hi}, "b": {"$gte": b_lo, "$lte": b_hi}}
    result = col.find_with_stats(q, hint="a_b")
    expected = sorted(
        (a, b) for a, b in pairs if a_lo <= a <= a_hi and b_lo <= b <= b_hi
    )
    got = sorted((d["a"], d["b"]) for d in result)
    assert got == expected
    # The scan may never examine more entries than exist, modulo one
    # landing key per seek.
    assert result.stats.keys_examined <= len(pairs) + result.stats.seeks


@settings(max_examples=40, deadline=None)
@given(
    pairs=doc_strategy,
    intervals=st.lists(
        st.tuples(bound, bound), min_size=1, max_size=4
    ),
)
def test_or_interval_scan_matches_oracle(pairs, intervals):
    norm = [(min(a, b), max(a, b)) for a, b in intervals]
    col = build(pairs)
    q = {"$or": [{"a": {"$gte": lo, "$lte": hi}} for lo, hi in norm]}
    result = col.find_with_stats(q, hint="a_b")
    expected = sorted(
        (a, b)
        for a, b in pairs
        if any(lo <= a <= hi for lo, hi in norm)
    )
    got = sorted((d["a"], d["b"]) for d in result)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    pairs=doc_strategy,
    in_values=st.lists(bound, min_size=1, max_size=6),
    b_lo=bound,
)
def test_in_plus_range_matches_oracle(pairs, in_values, b_lo):
    col = build(pairs)
    q = {"a": {"$in": in_values}, "b": {"$gte": b_lo}}
    result = col.find_with_stats(q, hint="a_b")
    expected = sorted(
        (a, b) for a, b in pairs if a in in_values and b >= b_lo
    )
    got = sorted((d["a"], d["b"]) for d in result)
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(pairs=doc_strategy, a_lo=bound, a_hi=bound)
def test_plan_choice_never_changes_results(pairs, a_lo, a_hi):
    """Whatever plan the optimizer picks, results equal the reference
    interpreter's."""
    if a_lo > a_hi:
        a_lo, a_hi = a_hi, a_lo
    col = build(pairs)
    col.create_index([("b", 1)], name="b_1")
    q = {"a": {"$gte": a_lo, "$lte": a_hi}, "b": {"$gte": 0}}
    auto = col.find_with_stats(q)
    oracle = [d for d in col.all_documents() if reference_matches(q, d)]
    assert len(auto) == len(oracle)


@settings(max_examples=25, deadline=None)
@given(
    pairs=doc_strategy,
    removals=st.lists(st.integers(min_value=0, max_value=119), max_size=40),
    a_lo=bound,
    a_hi=bound,
)
def test_scan_correct_after_deletes(pairs, removals, a_lo, a_hi):
    """Deletions keep index and storage consistent."""
    if a_lo > a_hi:
        a_lo, a_hi = a_hi, a_lo
    col = Collection("t")
    col.create_index([("a", 1)], name="a_1")
    ids = col.insert_many(
        {"_id": i, "a": a, "b": b} for i, (a, b) in enumerate(pairs)
    )
    doomed = sorted({r for r in removals if r < len(ids)})
    if doomed:
        col.delete_many({"_id": {"$in": doomed}})
    q = {"a": {"$gte": a_lo, "$lte": a_hi}}
    result = col.find_with_stats(q, hint="a_1")
    expected = sorted(
        i
        for i, (a, _b) in enumerate(pairs)
        if i not in set(doomed) and a_lo <= a <= a_hi
    )
    assert sorted(d["_id"] for d in result) == expected
