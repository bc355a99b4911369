"""The leaf-run index scan against the key-by-key reference scan.

:func:`repro.docstore.executor.run_index_scan` reads B-tree leaves
directly and takes each run of matching keys as one slice;
:func:`repro.reference.reference_index_scan` checks every key with the
plain bounds checker and re-descends per seek.  Both must return the
same record ids in the same order and count the same ``keysExamined``
and ``seeks`` — the paper's counters — on any index and any bounds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import bson
from repro.docstore.executor import ExecutionStats, run_index_scan
from repro.docstore.index import SCAN_BOTTOM, SCAN_TOP, Index, IndexDefinition
from repro.docstore.planner import IndexScanPlan, Interval
from repro.reference import reference_index_scan

FIELDS = ("a", "b", "c")
#: Few distinct values, so duplicates and long runs are the norm.
VALUES = st.integers(min_value=0, max_value=6)
#: Bound endpoints: a value, or -1 / 7 for the scan sentinels.
ENDPOINTS = st.integers(min_value=-1, max_value=7)


def _canon(point, sentinel):
    if point == -1:
        return SCAN_BOTTOM
    if point == 7:
        return SCAN_TOP
    return bson.sort_key(point) if sentinel is None else sentinel


@st.composite
def interval_lists(draw):
    """A sorted, disjoint interval list: points, open and closed ends,
    touching neighbours and the sentinels all occur."""
    raw = draw(
        st.lists(
            st.tuples(ENDPOINTS, ENDPOINTS, st.booleans(), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    out = []
    for a, b, lo_inclusive, hi_inclusive in sorted(
        (min(a, b), max(a, b), li, hi) for a, b, li, hi in raw
    ):
        if a == 7 or b == -1:
            continue  # a sentinel on the wrong side
        if out:
            prev = out[-1]
            if a < prev[1] or (a == prev[1] and prev[3] and lo_inclusive):
                continue  # would overlap its predecessor
        out.append((a, b, lo_inclusive, hi_inclusive))
    if not out:
        out = [(-1, 7, True, True)]
    return [
        Interval(_canon(a, None), _canon(b, None), li, hi)
        for a, b, li, hi in out
    ]


@st.composite
def scans(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    multikey = draw(st.booleans())
    documents = []
    for _ in range(draw(st.integers(min_value=0, max_value=80))):
        doc = {f: draw(VALUES) for f in FIELDS[:width]}
        if multikey and draw(st.booleans()):
            doc["a"] = draw(st.lists(VALUES, max_size=4))
        documents.append(doc)
    order = draw(st.integers(min_value=4, max_value=8))
    bulk = draw(st.booleans())
    removed = draw(st.sets(st.integers(min_value=0, max_value=79)))
    bounded = draw(st.integers(min_value=1, max_value=width))
    bounds = [draw(interval_lists()) for _ in range(bounded)]
    return width, documents, order, bulk, removed, bounds


def _index(width, documents, order, bulk, removed):
    spec = [(f, 1) for f in FIELDS[:width]]
    index = Index(IndexDefinition.from_spec(spec, name="ix"), order=order)
    if bulk:
        index.build(enumerate(documents))
    else:
        for rid, doc in enumerate(documents):
            index.insert_document(rid, doc)
    # Lazy deletion leaves short and empty leaves behind.
    for rid in sorted(removed):
        if rid < len(documents):
            index.remove_document(rid, documents[rid])
    return index


@settings(max_examples=400, deadline=None)
@given(case=scans())
def test_leaf_run_scan_equals_reference(case):
    width, documents, order, bulk, removed, bounds = case
    index = _index(width, documents, order, bulk, removed)
    plan = IndexScanPlan(index, bounds, 0.0, 0.0, len(bounds))
    fast, slow = ExecutionStats(), ExecutionStats()
    assert run_index_scan(plan, fast) == reference_index_scan(plan, slow)
    assert fast.as_dict() == slow.as_dict()


def test_runs_cross_many_leaves():
    """One interval over thousands of duplicates at order 4: every leaf
    is one run, and the counters still match key for key."""
    documents = [{"a": i % 3, "b": i % 5} for i in range(3000)]
    index = _index(2, documents, 4, False, set())
    bounds = [
        [Interval(bson.sort_key(1), bson.sort_key(1))],
        [Interval(bson.sort_key(1), bson.sort_key(3), False, True)],
    ]
    plan = IndexScanPlan(index, bounds, 0.0, 0.0, 2)
    fast, slow = ExecutionStats(), ExecutionStats()
    rids = run_index_scan(plan, fast)
    assert rids == reference_index_scan(plan, slow)
    assert fast.as_dict() == slow.as_dict()
    assert sorted(rids) == [
        i for i, d in enumerate(documents) if d["a"] == 1 and d["b"] in (2, 3)
    ]
