"""The paper-faithful reference read path — the differential oracle.

Production reads take one path (:meth:`ShardedCluster.find`: bind or
analyze, compile, one persistent cursor, residual filter, structural
copy).  This module answers the same query the slow, obvious way:
uncached routing that tests every chunk of the map
(:func:`reference_target_chunks`, where production bisects the chunk
list first), every shard planning on its own (no shared hinted
bounds), one B-tree descent per seek, the whole predicate
interpreted on every fetched document, ``copy.deepcopy`` results,
shards one after another.  Documents must
come out byte-identical and ``keysExamined`` / ``docsExamined`` /
``seeks`` / targeted shards identical per shard — those counters are
the paper's results.  Nothing under ``src/`` imports this module; the
differential suites do (DESIGN.md §8).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.cluster.catalog import CollectionMetadata
from repro.cluster.cluster import ClusterFindResult, ShardedCluster
from repro.cluster.metrics import ClusterQueryStats
from repro.cluster.router import (
    LexBoxChecker,
    TargetingResult,
    shard_key_intervals,
)
from repro.docstore.collection import Collection, FindResult
from repro.docstore.document import deep_copy_document
from repro.docstore.executor import ExecutionStats, _advancing, _BoundsChecker
from repro.docstore.matcher import Matcher
from repro.docstore.planner import (
    IndexScanPlan,
    QueryShape,
    analyze_query,
    plan_query,
)

__all__ = [
    "reference_target_chunks",
    "reference_index_scan",
    "reference_find",
    "reference_cluster_find",
]


def reference_target_chunks(
    metadata: CollectionMetadata, shape: QueryShape
) -> TargetingResult:
    """:func:`~repro.cluster.router.target_chunks`, testing every chunk."""
    intervals = shard_key_intervals(metadata.pattern, shape)
    if intervals is None:
        return TargetingResult(
            list(metadata.chunks), metadata.shards_used(), True, None
        )
    checker = LexBoxChecker(intervals)
    chunks = [
        c for c in metadata.chunks if checker.intersects(c.min_key, c.max_key)
    ]
    shard_ids = sorted({c.shard_id for c in chunks})
    return TargetingResult(chunks, shard_ids, False, intervals)


def reference_index_scan(plan: IndexScanPlan, stats: ExecutionStats) -> List[int]:
    """:func:`~repro.docstore.executor.run_index_scan`, one descent per seek."""
    tree = plan.index.tree
    checker = _BoundsChecker(plan.bounds)
    rids: List[int] = []
    seen: set = set()
    seek_key = checker.start_key()
    while seek_key is not None:
        stats.seeks += 1
        next_seek = None
        for key, rid in tree.seek(seek_key):
            stats.keys_examined += 1
            verdict, target = checker.check(key)
            if verdict == "match":
                if rid not in seen:
                    seen.add(rid)
                    rids.append(rid)
                continue
            if verdict == "seek":
                next_seek = _advancing(target, key)
            break  # "seek" or "done" both leave the inner walk
        seek_key = next_seek
    stats.stage = "IXSCAN"
    stats.index_name = plan.index_name
    return rids


def reference_find(
    collection: Collection,
    query: Mapping[str, Any],
    hint: Optional[str] = None,
    max_geo_ranges: Optional[int] = None,
) -> FindResult:
    """:meth:`Collection.find_with_stats` through the reference layers."""
    # The oracle reads the collection's storage directly: going through
    # a production read method would put the code under test inside it.
    records = collection._records
    matches = Matcher.interpreted(query).matches
    plan = plan_query(
        analyze_query(query),
        list(collection._indexes.values()),
        collection_size=len(records),
        hint=hint,
        max_geo_ranges=max_geo_ranges,
    )
    stats = ExecutionStats()
    if plan.kind == "COLLSCAN":
        stats.stage = plan.kind
        fetched = list(records.values())
    else:
        rids = reference_index_scan(plan, stats)
        fetched = [records[rid] for rid in rids if rid in records]
    stats.docs_examined = len(fetched)
    documents = [deep_copy_document(doc) for doc in fetched if matches(doc)]
    stats.n_returned = len(documents)
    return FindResult(documents, stats, plan)


def reference_cluster_find(
    cluster: ShardedCluster,
    collection: str,
    query: Mapping[str, Any],
    hint: Optional[str] = None,
    max_geo_ranges: Optional[int] = None,
) -> ClusterFindResult:
    """:meth:`ShardedCluster.find` through the reference layers."""
    targeting = reference_target_chunks(
        cluster.catalog.get(collection), analyze_query(query)
    )
    stats = ClusterQueryStats(
        targeted_shards=list(targeting.shard_ids),
        broadcast=targeting.broadcast,
    )
    documents: List[dict] = []
    for shard_id in targeting.shard_ids:
        shard_collection = cluster.shards[shard_id].collection(collection)
        result = reference_find(shard_collection, query, hint, max_geo_ranges)
        stats.per_shard[shard_id] = result.stats
        documents.extend(result.documents)
    stats.execution_time_ms = cluster.cost_model.query_time_ms(stats.per_shard)
    return ClusterFindResult(documents, stats)
