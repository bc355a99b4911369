"""Results copied by stored shape equal a deep copy and share nothing.

``Collection`` keeps a ``DocumentShape`` per stored document, computed
where the document enters or changes, and copies every ``find`` result
along it without testing field types again.  A shape that went stale —
an update, delete or migration that forgot to refresh or drop it —
would hand out a copy that misses a field, keeps one it should not, or
shares a container with the store.  This property runs random insert,
update, delete and migrate sequences over two shards' collections with
mixed document shapes and checks, after every operation, each shard's
results through a collection scan and an index scan against the
reference copy (``deep_copy_document``), and that the shape table
covers exactly the stored records.
"""

import contextlib
import datetime as dt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.chunk import ShardKeyPattern
from repro.cluster.shard import Shard, shard_key_index_name
from repro.docstore.bson import ObjectId
from repro.docstore.collection import Collection
from repro.docstore.document import deep_copy_document
from repro.errors import DocumentStoreError

PATTERN = ShardKeyPattern.from_spec([("k", 1)])
INDEX = shard_key_index_name(PATTERN)
KEYS = ["a", "b", "meta", "tags"]


class _TaggedDict(dict):
    pass


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=2)
    | st.datetimes(min_value=dt.datetime(2000, 1, 1))
    | st.integers(0, 2**24 - 1).map(lambda c: ObjectId(timestamp=0, counter=c))
)
_values = st.recursive(
    _scalars | st.binary(max_size=2).map(bytearray),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=2).map(_TaggedDict),
    max_leaves=6,
)
_bodies = st.dictionaries(st.sampled_from(KEYS), _values, max_size=4)
_paths = st.sampled_from(KEYS + ["meta.a", "meta.b", "tags.0", "a.meta"])
_ranges = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(sorted)
_shards = st.integers(0, 1)

# A batch of documents laid out like its first one, but for one field
# each: a collection reuses the previous document's shape object when
# the next shape is equal to it, so near misses are what it must get
# right.
_batches = st.tuples(
    _bodies, st.lists(st.tuples(st.sampled_from(KEYS), _values), max_size=3)
).map(lambda bv: [bv[0]] + [{**bv[0], key: value} for key, value in bv[1]])

_operations = st.one_of(
    st.tuples(st.just("insert"), _shards, _batches),
    st.tuples(
        st.just("update"),
        _ranges,
        st.one_of(
            st.dictionaries(_paths, _values, min_size=1, max_size=2).map(
                lambda d: {"$set": d}
            ),
            st.lists(_paths, min_size=1, max_size=2).map(
                lambda ps: {"$unset": dict.fromkeys(ps, "")}
            ),
            st.tuples(_paths, _values).map(lambda pv: {"$push": {pv[0]: pv[1]}}),
        ),
    ),
    st.tuples(st.just("delete"), _ranges),
    st.tuples(st.just("migrate"), _shards, _ranges),
)


def _containers(value, out):
    """The ids of every mutable container reachable from ``value``."""
    if isinstance(value, (dict, list, bytearray)):
        out.add(id(value))
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return out
    for item in items:
        _containers(item, out)
    return out


def _check(collection: Collection) -> None:
    records = collection._records
    assert set(collection._shapes) == set(records)
    stored = sorted(records.values(), key=lambda doc: doc["_id"])
    expected = [deep_copy_document(doc) for doc in stored]
    owned = _containers(stored, set())
    for query, hint in (({}, None), ({"k": {"$gte": 0}}, INDEX)):
        result = collection.find_with_stats(query, hint=hint).documents
        assert sorted(result, key=lambda doc: doc["_id"]) == expected
        assert not _containers(result, set()) & owned


def _range_key(bound):
    return PATTERN.extract_canonical({"k": bound})


@settings(max_examples=150, deadline=None)
@given(
    loaded=_batches,
    operations=st.lists(_operations, max_size=8),
)
# Two bulk-loaded documents share one nested dict; updating it in one
# of them must leave the other, and the other's shape, untouched.
@example(
    loaded=(lambda meta: [{"meta": meta}, {"meta": meta, "a": None}])({}),
    operations=[("update", [0, 0], {"$set": {"meta.a": []}})],
)
def test_find_results_follow_the_stored_shape(loaded, operations):
    shards = [Shard("a"), Shard("b")]
    for shard in shards:
        shard.collection("t").create_index([("k", 1)], name=INDEX)
    ids = iter(range(10**6))

    def documents(bodies):
        return [
            {**body, "_id": next(ids), "k": i % 10} for i, body in enumerate(bodies)
        ]

    # The first shard starts from a bulk load, which adopts the given
    # documents' nested containers instead of copying them.
    shards[0].collection("t").bulk_load(documents(loaded))
    _check(shards[0].collection("t"))
    for operation in operations:
        kind, *args = operation
        if kind == "insert":
            shard, bodies = args
            shards[shard].collection("t").insert_many(documents(bodies))
        elif kind == "update":
            (lo, hi), update = args
            for shard in shards:
                # A $push onto a non-array raises part-way; whatever was
                # updated before it must still copy correctly.
                with contextlib.suppress(DocumentStoreError):
                    shard.collection("t").update_many(
                        {"k": {"$gte": lo, "$lte": hi}}, update
                    )
        elif kind == "delete":
            lo, hi = args[0]
            for shard in shards:
                shard.collection("t").delete_many({"k": {"$gte": lo, "$lte": hi}})
        else:
            source, (lo, hi) = args
            moving = shards[source].extract_documents_in_range(
                "t", PATTERN, _range_key(lo), _range_key(hi + 1)
            )
            shards[1 - source].receive_documents("t", moving)
        for shard in shards:
            _check(shard.collection("t"))
