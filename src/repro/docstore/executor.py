"""Plan execution with MongoDB-style execution statistics.

The executor turns a plan into record ids and counters.  The counters —
``keysExamined`` and ``docsExamined`` — are the exact metrics the paper
plots in every figure (Figs. 5-13), so the scan follows MongoDB's
*index-bounds checker* mechanics:

* the scan is a single forward walk over the index's leaves;
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

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.docstore.index import SCAN_TOP
from repro.docstore.matcher import Matcher
from repro.docstore.planner import CollScanPlan, IndexScanPlan
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

    MongoDB's index-bounds checker, read straight off the B-tree's
    leaves.  ``plan.bounds`` holds one sorted, disjoint interval list
    per bounded index field (a prefix of the key).  Each key the scan
    lands on is examined with one ``bisect_right`` per bounded field:

    * inside every field's interval — a match, and so is every key up
      to the end of the *run*: the keys that share the match's prefix
      and whose last bounded field stays inside the same interval.
      One ``bisect_left`` on the leaf finds where the run ends; the run
      is taken as one slice and counts one examined key per entry;
    * outside — the scan seeks to the next possible in-bounds key,
      strictly past this one, and the keys in between are never
      examined;
    * past the first field's last interval — the scan is done.

    Deduplication mirrors MongoDB's OR/interval stages, and only a
    multikey index can hold one record id twice.
    :func:`repro.reference.reference_index_scan` checks key by key and
    re-descends per seek; it must examine the identical keys
    (``keysExamined``, ``seeks``).
    """
    tree = plan.index.tree
    top = SCAN_TOP
    bounds = [
        [(iv.lo, iv.hi, iv.lo_inclusive, iv.hi_inclusive) for iv in ivs]
        for ivs in plan.bounds
    ]
    lows = [[iv[0] for iv in ivs] for ivs in bounds]
    width = len(bounds)
    last = width - 1
    # suffixes[d]: the lowest key for bounded fields d.. (a seek target's
    # tail once field d-1 jumps to a new interval).
    suffixes = [tuple(ivs[0] for ivs in lows[d:]) for d in range(width + 1)]
    dedupe = plan.index.is_multikey()
    seen: set = set()
    rids: List[int] = []
    examined = 0
    seeks = 1
    leaf: Optional[Any]
    leaf, i = tree.locate(suffixes[0])
    while leaf is not None:
        keys = leaf.keys
        if i >= len(keys):
            leaf = leaf.next
            i = 0
            continue
        key = keys[i]
        for depth in range(width):
            value = key[depth]
            ivs = bounds[depth]
            p = bisect_right(lows[depth], value)
            if not p:
                target = key[:depth] + (ivs[0][0],) + suffixes[depth + 1]
                break
            lo, hi, lo_inclusive, hi_inclusive = ivs[p - 1]
            if value == lo and not lo_inclusive:
                # On an excluded bound: skip every key sharing it.
                target = key[: depth + 1] + (top,)
                break
            if value < hi or (hi_inclusive and value == hi):
                continue
            if value == hi:  # exclusive hi
                target = key[: depth + 1] + (top,)
                break
            if p < len(ivs):
                target = key[:depth] + (ivs[p][0],) + suffixes[depth + 1]
                break
            if not depth:
                target = None
                break
            # This field ran past its last interval: advance the
            # previous one.
            target = key[:depth] + (top,)
            break
        else:
            # A match.  The run ends before the first key whose prefix
            # differs or whose last field leaves the interval (or
            # reaches the next interval's lower bound, where the check
            # would judge it against that interval instead).
            prefix = key[:last]
            if p < len(ivs) and not hi < lows[last][p]:
                upper = prefix + (lows[last][p],)
            elif hi_inclusive:
                upper = prefix + (hi, top)
            else:
                upper = prefix + (hi,)
            j = bisect_left(keys, upper, i + 1)
            examined += j - i
            if dedupe:
                for rid in leaf.payloads[i:j]:
                    if rid not in seen:
                        seen.add(rid)
                        rids.append(rid)
            else:
                rids += leaf.payloads[i:j]
            i = j
            continue
        examined += 1
        if target is None:
            break
        # Seek forward, strictly past the failing key: a bisect when the
        # target is on this leaf, else a hop or a descent.
        _advancing(target, key)
        seeks += 1
        if not keys[-1] < target:
            i = bisect_left(keys, target, i + 1)
        else:
            leaf, i = tree.seek_from(leaf, i, target)

    stats.keys_examined += examined
    stats.seeks += seeks
    stats.stage = "IXSCAN"
    stats.index_name = plan.index_name
    return rids


def execute_plan(
    plan: IndexScanPlan | CollScanPlan,
    records: Mapping[int, Mapping[str, Any]],
    matcher: Matcher,
) -> Tuple[List[int], ExecutionStats]:
    """Execute a plan against the record store and filter residually.

    Returns the record ids of the matching documents — the collection
    layer copies each one before handing it to a caller — plus stats.
    Every fetched document counts in ``docsExamined`` whatever the
    residual filter still has to test.
    """
    stats = ExecutionStats()
    if isinstance(plan, CollScanPlan):
        stats.stage = "COLLSCAN"
        started = time.perf_counter()
        matches = matcher.matches
        out = [rid for rid, doc in records.items() if matches(doc)]
        stats.docs_examined = len(records)
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
    fetched = [rid for rid in rids if rid in records]
    out = [rid for rid in fetched if matches(records[rid])]
    stats.docs_examined = len(fetched)
    stats.stage_times_ms["scan"] = (scanned - started) * 1000.0
    stats.stage_times_ms["filter"] = (
        time.perf_counter() - scanned
    ) * 1000.0
    stats.n_returned = len(out)
    return out, stats
