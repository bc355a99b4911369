"""A shard worker answers with its parent's record ids.

The process backend's workers answer with record ids, and the parent
copies those rids' documents out of its own collection.  That is only
right if the worker holds every document under the rid the parent
holds it under, in the same scan order.  Rids have gaps once documents
leave — deletes, and chunk migrations that move a key range to the
other shard — so a worker that renumbered its documents would answer
with rids that name other documents, or none.

This property runs random insert, delete, update and migrate sequences
over two shards' collections, in two halves.  After each half, one
real worker client (a forked process hosting both shards; the second
half's writes make it fork afresh) answers random queries: its rids
and counters are the parent's, and the parent's ``copy_results`` of
those rids equals its own ``find_with_stats`` documents and shares no
container with its store.  With ``REPRO_WORKER_SANITIZE=1`` the worker
runs its own lock-order sanitizer.
"""

import multiprocessing
import os

from hypothesis import given, settings
from hypothesis import strategies as st

# Registers the worker instrumenter for REPRO_WORKER_SANITIZE=1.
import repro.sanitizer  # noqa: F401
from repro.cluster.chunk import ShardKeyPattern
from repro.cluster.shard import Shard, shard_key_index_name
from repro.service import executors

PATTERN = ShardKeyPattern.from_spec([("k", 1)])
INDEX = shard_key_index_name(PATTERN)

_ranges = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(sorted)
_shards = st.integers(0, 1)
_bodies = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(0, 9), "g": st.integers(0, 3)},
        optional={"tags": st.lists(st.integers(0, 3), max_size=3)},
    ),
    max_size=12,
)
_operations = st.one_of(
    st.tuples(st.just("insert"), _shards, _bodies),
    st.tuples(st.just("delete"), _shards, _ranges),
    st.tuples(st.just("update"), _ranges, st.integers(0, 3)),
    st.tuples(st.just("migrate"), _shards, _ranges),
)
_queries = st.one_of(
    st.just(({}, None)),
    _ranges.map(lambda r: ({"k": {"$gte": r[0], "$lte": r[1]}}, None)),
    _ranges.map(lambda r: ({"k": {"$gte": r[0], "$lte": r[1]}}, INDEX)),
    st.integers(0, 3).map(lambda g: ({"g": g}, None)),
    st.integers(0, 3).map(lambda g: ({"tags": g}, None)),
    st.tuples(_ranges, st.integers(0, 3)).map(
        lambda rg: (
            {"$or": [{"k": {"$lt": rg[0][0]}}, {"g": rg[1]}]},
            None,
        )
    ),
)


def _counters(stats):
    return (
        stats.keys_examined,
        stats.docs_examined,
        stats.n_returned,
        stats.seeks,
        stats.stage,
        stats.index_name,
    )


def _containers(value, out):
    """The ids of every mutable container reachable from ``value``."""
    if isinstance(value, (dict, list)):
        out.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, out)
    return out


def _worker(shards):
    sanitize = os.environ.get(executors.ENV_WORKER_SANITIZE, "") not in (
        "",
        "0",
    )
    return executors._WorkerClient(
        multiprocessing.get_context("fork"),
        0,
        sanitize,
        {shard.shard_id: shard for shard in shards},
    )


def _check(client, shards, queries) -> None:
    # ``{}`` first: a collection scan returns the rids in scan order.
    for query, hint in [({}, None)] + queries:
        spec = executors.SubquerySpec(
            collection="t", query=query, hint=hint, max_geo_ranges=None
        )
        pendings = [
            (shard, client.enqueue(shard.shard_id, shard.collection("t"), spec, 0.0))
            for shard in shards
        ]
        client.flush()
        for shard, pending in pendings:
            source = shard.collection("t")
            rids, stats = pending.result(executors.Deadline(10_000.0))
            mine, mine_stats, _plan = source.find_rids(query, hint=hint)
            expected = source.find_with_stats(query, hint=hint)
            assert rids == mine
            assert _counters(stats) == _counters(mine_stats)
            assert _counters(stats) == _counters(expected.stats)
            owned: set = set()
            for doc in source.all_documents():
                _containers(doc, owned)
            documents = source.copy_results(rids)
            assert documents == expected.documents
            for doc in documents:
                assert not _containers(doc, set()) & owned


def _apply(shards, operations, ids) -> None:
    for operation in operations:
        kind, *args = operation
        if kind == "insert":
            shard, bodies = args
            shards[shard].collection("t").insert_many(
                [{**body, "_id": next(ids)} for body in bodies]
            )
        elif kind == "delete":
            shard, (lo, hi) = args
            shards[shard].collection("t").delete_many(
                {"k": {"$gte": lo, "$lte": hi}}
            )
        elif kind == "update":
            (lo, hi), g = args
            for shard in shards:
                shard.collection("t").update_many(
                    {"k": {"$gte": lo, "$lte": hi}}, {"$set": {"g": g}}
                )
        else:
            source, (lo, hi) = args
            moving = shards[source].extract_documents_in_range(
                "t",
                PATTERN,
                PATTERN.extract_canonical({"k": lo}),
                PATTERN.extract_canonical({"k": hi + 1}),
            )
            shards[1 - source].receive_documents("t", moving)


@settings(max_examples=120, deadline=None)
@given(
    first=st.lists(_operations, max_size=6),
    second=st.lists(_operations, max_size=6),
    queries=st.lists(_queries, min_size=1, max_size=4),
)
def test_replica_answers_with_the_source_rids(first, second, queries):
    shards = [Shard("a"), Shard("b")]
    for shard in shards:
        shard.collection("t").create_index([("k", 1)], name=INDEX)
        shard.collection("t").create_index([("g", 1)], name="g_1")
    ids = iter(range(10**6))
    client = _worker(shards)
    try:
        # No reader holds a lock here: nothing runs while the worker
        # forks, which is what a shard read lock guarantees the service.
        for operations in (first, second):
            _apply(shards, operations, ids)
            _check(client, shards, queries)
    finally:
        client.close()
