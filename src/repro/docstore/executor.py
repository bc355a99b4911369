"""Plan execution with MongoDB-style execution statistics.

The executor turns a plan into record ids and counters.  The counters —
``keysExamined`` and ``docsExamined`` — are the exact metrics the paper
plots in every figure (Figs. 5-13), so the scan follows MongoDB's
*index-bounds checker* mechanics:

* the scan is a single forward cursor walk over the index;
* every key the cursor lands on counts as examined, pass or fail;
* when a key falls outside the bounds, the checker computes the next
  possible in-bounds position and the cursor *seeks* there, skipping
  the keys in between (those are never examined);
* every fetched document counts as one document examined, whether or
  not the residual filter keeps it.

This data-driven seeking is what makes a ``(date, location)`` index
scan over a date range examine ≈ the keys in that range (each checked
against the location intervals), while a ``(location, date)`` scan
over many location ranges examines ≈ the matching cells plus one
landing key per seek — the asymmetry Figs. 6 and 13 hinge on.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.docstore.index import SCAN_TOP
from repro.docstore.matcher import Matcher
from repro.docstore.planner import CollScanPlan, IndexScanPlan, Interval
from repro.errors import DocumentStoreError

__all__ = ["ExecutionStats", "execute_plan", "run_index_scan"]


@dataclass
class ExecutionStats:
    """Counters equivalent to MongoDB's ``executionStats`` section."""

    keys_examined: int = 0
    docs_examined: int = 0
    n_returned: int = 0
    seeks: int = 0
    stage: str = ""
    index_name: Optional[str] = None
    # Wall-clock per stage (plan/scan/filter), kept OUT of as_dict():
    # as_dict() is compared across execution paths by tests and the
    # paper-figure pipelines, and timings are never reproducible.
    stage_times_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """The counters as an executionStats-like mapping."""
        return {
            "stage": self.stage,
            "indexName": self.index_name,
            "keysExamined": self.keys_examined,
            "docsExamined": self.docs_examined,
            "nReturned": self.n_returned,
            "seeks": self.seeks,
        }


class _BoundsChecker:
    """MongoDB's IndexBoundsChecker: validate keys, compute seek targets.

    ``bounds`` holds one sorted, disjoint interval list per bounded
    index field (a prefix of the key).  ``check`` returns one of:

    * ``("match", None)`` — the key lies inside every field's bounds;
    * ``("seek", target)`` — the key fails; resume at ``target``
      (strictly greater than the key, guaranteeing progress);
    * ``("done", None)`` — no in-bounds key can follow.
    """

    def __init__(self, bounds: Sequence[Sequence[Interval]]) -> None:
        self._bounds = bounds
        # Interval lists are sorted and disjoint; bisection over their
        # lower bounds keeps per-key checking O(log n) even when a
        # fragmented covering contributes thousands of intervals.
        self._lower_bounds = [
            [iv.lo for iv in intervals] for intervals in bounds
        ]

    def start_key(self) -> Tuple:
        return tuple(ivs[0].lo for ivs in self._bounds)

    def check(self, key: Tuple) -> Tuple[str, Optional[Tuple]]:
        for depth, intervals in enumerate(self._bounds):
            value = key[depth]
            state, interval_lo = self._locate(
                intervals, self._lower_bounds[depth], value
            )
            if state == "inside":
                continue
            if state == "gap":
                # Next valid position: jump this field to the next
                # interval's lower bound, lowest suffix below it.
                target = (
                    key[:depth]
                    + (interval_lo,)
                    + self._lowest_suffix(depth + 1)
                )
                return "seek", target
            if state == "on_excluded":
                # Sitting exactly on an excluded bound: skip every key
                # sharing this prefix value.
                return "seek", key[: depth + 1] + (SCAN_TOP,)
            # state == "above": this field ran past its last interval;
            # advance the previous field.
            if depth == 0:
                return "done", None
            return "seek", key[:depth] + (SCAN_TOP,)
        return "match", None

    def _lowest_suffix(self, depth: int) -> Tuple:
        return tuple(
            self._bounds[i][0].lo for i in range(depth, len(self._bounds))
        )

    @staticmethod
    def _locate(
        intervals: Sequence[Interval],
        lower_bounds: Sequence[Tuple],
        value: Tuple,
    ) -> Tuple[str, Optional[Tuple]]:
        """Where ``value`` sits relative to the sorted interval list."""
        position = bisect.bisect_right(lower_bounds, value)
        if position == 0:
            return "gap", intervals[0].lo
        iv = intervals[position - 1]
        if value == iv.lo and not iv.lo_inclusive:
            return "on_excluded", None
        if value < iv.hi or (value == iv.hi and iv.hi_inclusive):
            return "inside", None
        if value == iv.hi:  # exclusive hi
            return "on_excluded", None
        # Past this interval: the next one (if any) starts the gap.
        if position < len(intervals):
            return "gap", intervals[position].lo
        return "above", None


def _advancing(target: Tuple, key: Tuple) -> Tuple:
    """``target``, once checked to lie strictly past the key it skips.

    A seek that does not advance would land on the same key and loop
    forever; it can only come from keys or bounds outside the index's
    total order, so fail loudly instead.
    """
    if not target > key:
        raise DocumentStoreError(
            "index scan cannot advance: seek target %r is not past key %r"
            % (target, key)
        )
    return target


def run_index_scan(plan: IndexScanPlan, stats: ExecutionStats) -> List[int]:
    """Record ids matching the plan's index bounds, deduplicated.

    Deduplication mirrors MongoDB's OR/interval stages: a record id is
    returned once even when several intervals could cover it.  One
    persistent :class:`~repro.docstore.btree.BTreeCursor` drives the
    whole multi-range scan (one descent, then leaf-to-leaf skips);
    :func:`repro.reference.reference_index_scan` re-descends per seek
    and must examine the identical keys (``keysExamined``, ``seeks``).
    """
    checker = _BoundsChecker(plan.bounds)
    rids: List[int] = []
    seen: set = set()

    cursor = plan.index.tree.cursor()
    seek_key: Optional[Tuple] = checker.start_key()
    while seek_key is not None:
        stats.seeks += 1
        cursor.seek(seek_key)
        next_seek: Optional[Tuple] = None
        while True:
            entry = cursor.peek()
            if entry is None:
                break  # cursor exhausted the tree
            key, rid = entry
            stats.keys_examined += 1
            verdict, target = checker.check(key)
            if verdict == "match":
                if rid not in seen:
                    seen.add(rid)
                    rids.append(rid)
                cursor.advance()
                continue
            if verdict == "seek":
                # The failing key stays unconsumed; the next seek
                # (strictly greater target) skips past it.
                next_seek = _advancing(target, key)
            break
        seek_key = next_seek

    stats.stage = "IXSCAN"
    stats.index_name = plan.index_name
    return rids


def execute_plan(
    plan: IndexScanPlan | CollScanPlan,
    records: Mapping[int, Mapping[str, Any]],
    matcher: Matcher,
) -> Tuple[List[Mapping[str, Any]], ExecutionStats]:
    """Execute a plan against the record store and filter residually.

    Returns matching documents (storage references, *not* copies — the
    collection layer copies before handing to callers) plus stats.
    Every fetched document counts in ``docsExamined`` whatever the
    residual filter still has to test.
    """
    stats = ExecutionStats()
    out: List[Mapping[str, Any]] = []
    if isinstance(plan, CollScanPlan):
        stats.stage = "COLLSCAN"
        started = time.perf_counter()
        for doc in records.values():
            stats.docs_examined += 1
            if matcher.matches(doc):
                out.append(doc)
        stats.stage_times_ms["filter"] = (
            time.perf_counter() - started
        ) * 1000.0
        stats.n_returned = len(out)
        return out, stats

    started = time.perf_counter()
    rids = run_index_scan(plan, stats)
    scanned = time.perf_counter()
    # FETCH applies only what the index bounds have not already proved.
    matches = matcher.residual(plan.covered_paths)
    for rid in rids:
        doc = records.get(rid)
        if doc is None:
            continue
        stats.docs_examined += 1
        if matches(doc):
            out.append(doc)
    stats.stage_times_ms["scan"] = (scanned - started) * 1000.0
    stats.stage_times_ms["filter"] = (
        time.perf_counter() - scanned
    ) * 1000.0
    stats.n_returned = len(out)
    return out, stats
