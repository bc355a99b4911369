"""Collections: documents + indexes + query execution + stats.

This is the single-node MongoDB surface the rest of the reproduction
builds on.  Every shard in :mod:`repro.cluster` hosts collections of
this class; the mongos router fans queries out to them and merges the
per-shard :class:`~repro.docstore.executor.ExecutionStats` into the
cluster metrics the paper reports.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.docstore.aggregation import run_pipeline
from repro.docstore.bson import ObjectId, key_bytes
from repro.docstore.cursor import Cursor
from repro.docstore.document import (
    MISSING,
    DocumentShape,
    _fast_copy_value,
    copy_with_shape,
    get_path,
    set_path,
    shape_of,
    unset_path,
)
from repro.docstore.executor import ExecutionStats, execute_plan
from repro.docstore.index import Index, IndexDefinition
from repro.docstore.matcher import Matcher
from repro.docstore.planner import (
    CollScanPlan,
    IndexScanPlan,
    analyze_query,
    plan_query,
)
from repro.docstore.lsm import (
    DurabilityConfig,
    LSMEngine,
    decode_document,
    encode_document,
)
from repro.docstore.lsm.wal import OP_DELETE, OP_PUT
from repro.docstore.storage import StorageModel
from repro.errors import DocumentStoreError, IndexError_

__all__ = ["Collection", "FindResult", "own_document"]


class FindResult:
    """Documents plus the execution evidence (plan + stats)."""

    def __init__(
        self,
        documents: List[dict],
        stats: ExecutionStats,
        plan: IndexScanPlan | CollScanPlan,
    ) -> None:
        self.documents = documents
        self.stats = stats
        self.plan = plan

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


def own_document(document: Mapping[str, Any]) -> dict:
    """A private top-level copy with an ``_id`` (a fresh ObjectId when
    absent).

    Nested containers stay shared with the caller: the bulk paths
    (initial load, replica sync) take over documents their caller is
    done with, and copying every nested field of a whole data set would
    hold it in memory twice.  Single writes copy deeper
    (:meth:`Collection._insert_local`).
    """
    doc = dict(document)
    if "_id" not in doc:
        doc["_id"] = ObjectId()
    return doc


class Collection:
    """A named collection of documents with secondary indexes."""

    def __init__(
        self,
        name: str,
        storage_model: Optional[StorageModel] = None,
        btree_order: int = 64,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self.name = name
        self._records: Dict[int, dict] = {}
        #: Each stored document's :class:`DocumentShape`, by rid: set
        #: wherever a document enters or changes (``_insert_local``,
        #: ``_load_local``, ``update_many``), dropped with the record,
        #: and read by ``find_with_stats`` to copy results.
        self._shapes: Dict[int, DocumentShape] = {}
        #: The shape stored last; an equal new shape reuses this object,
        #: so a collection of like documents holds one shape.
        self._last_shape = DocumentShape()
        self._rid_counter = itertools.count()
        self._indexes: Dict[str, Index] = {}
        #: Logical content epoch: bumped by every mutating operation
        #: (writes, migration moves, index DDL).  Replication layers —
        #: the process-parallel shard executors — compare it against
        #: the epoch of their last shipped snapshot to decide whether a
        #: replica must re-sync before serving a read.
        self._mutations = 0
        self._btree_order = btree_order
        self.storage_model = storage_model or StorageModel()
        # The _id index exists on every MongoDB collection and cannot
        # be dropped (Section 3.1).
        self._indexes["_id_"] = Index(
            IndexDefinition.from_spec([("_id", 1)], name="_id_", unique=True),
            order=btree_order,
        )
        # Durable write path (ISSUE PR-5): a WAL+LSM engine beneath the
        # in-memory structures.  The default (None) leaves the original
        # purely in-memory engine untouched.
        self._engine: Optional[LSMEngine] = None
        if durability is not None:
            self._engine = LSMEngine(durability)
            self._engine.recover()
            self._load_local(
                [decode_document(raw) for _, raw in self._engine.scan()]
            )

    @classmethod
    def from_snapshot(
        cls,
        name: str,
        definitions: Sequence[IndexDefinition],
        documents: Iterable[Mapping[str, Any]],
    ) -> "Collection":
        """Rebuild a read replica from a consistent snapshot.

        ``definitions``/``documents`` come from
        :meth:`index_definitions` and :meth:`all_documents` captured
        under the same exclusion (the process-parallel executors pickle
        both while holding the source shard's read lock).  Documents
        are inserted in the given (rid) order, so replica rids are a
        monotone remap of the source's: index scan order, collection
        scan order, and every executionStats counter match the source
        collection exactly.  Every index is built bottom-up
        (:meth:`_load_local`).
        """
        replica = cls(name)
        for definition in definitions:
            if definition.name in replica._indexes:
                continue  # _id_ is built by the constructor
            replica._indexes[definition.name] = Index(
                definition, order=replica._btree_order
            )
        replica._load_local([own_document(d) for d in documents])
        # A replica starts at epoch 0 like any fresh collection; the
        # executor layer tracks the *source* epoch per snapshot.
        return replica

    # -- writes ---------------------------------------------------------------

    def _insert_local(self, document: Mapping[str, Any]) -> dict:
        """Apply one insert to the in-memory structures only.

        The shared half of the write path: regular inserts persist the
        result afterwards, recovery replays the engine's state through
        here without re-persisting it.
        """
        # A single write may come from a caller that goes on editing
        # its document: nested containers are copied too, or those
        # edits would reach the stored document behind every index.
        doc, shape = copy_with_shape(document)
        if "_id" not in doc:
            doc["_id"] = ObjectId()
        rid = next(self._rid_counter)
        for index in self._indexes.values():
            index.insert_document(rid, doc)
        self._records[rid] = doc
        self._shapes[rid] = self._shared(shape)
        return doc

    def _shared(self, shape: DocumentShape) -> DocumentShape:
        """``shape``, or the equal shape object stored before it."""
        if shape != self._last_shape:
            self._last_shape = shape
        return self._last_shape

    def _load_local(self, documents: Sequence[dict]) -> None:
        """Apply many inserts to the empty in-memory structures at once.

        The bulk form of :meth:`_insert_local` behind the initial
        load, replica sync, snapshot restore and engine recovery:
        rids follow the given order and every index is built bottom-up
        (:meth:`Index.build`).  The dicts are adopted, not copied —
        each must be the collection's own and carry an ``_id``.
        Nothing changes if an index build raises (duplicate key): the
        built indexes replace the empty ones only once all succeeded.
        """
        if self._records:
            raise DocumentStoreError(
                "bulk build needs an empty collection, %r holds %d documents"
                % (self.name, len(self._records))
            )
        records = {next(self._rid_counter): doc for doc in documents}
        built = {
            name: self._built_index(index.definition, records)
            for name, index in self._indexes.items()
        }
        self._indexes.update(built)
        self._records.update(records)
        self._shapes.update(
            (rid, self._shared(shape_of(doc))) for rid, doc in records.items()
        )

    def _built_index(
        self, definition: IndexDefinition, records: Mapping[int, dict]
    ) -> Index:
        index = Index(definition, order=self._btree_order)
        index.build(records.items())
        return index

    def bulk_load(self, documents: Sequence[dict]) -> None:
        """Insert documents into this empty collection in one step.

        The sharded cluster's initial load hands every shard its
        documents through here, in arrival order.  Observably the same
        as :meth:`insert_many` on an empty collection — except that a
        duplicate key raises before anything is inserted, and that the
        dicts are adopted (see :meth:`_load_local`).  With durability
        on, the load is one WAL batch.
        """
        self._mutations += 1
        self._load_local(documents)
        if self._engine is not None:
            self._engine.apply_batch(
                [
                    (OP_PUT, key_bytes([doc["_id"]]), encode_document(doc))
                    for doc in documents
                ]
            )

    def insert_one(self, document: Mapping[str, Any]) -> Any:
        """Insert one document; returns its ``_id``.

        A fresh ObjectId is assigned when the document has none, exactly
        like the MongoDB client driver (Appendix A.1).
        """
        self._mutations += 1
        doc = self._insert_local(document)
        if self._engine is not None:
            self._engine.put_one(
                key_bytes([doc["_id"]]), encode_document(doc)
            )
        return doc["_id"]

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> List[Any]:
        """Insert documents in order; returns their ids.

        With durability on, the whole batch is persisted as one WAL
        append (one group-commit fsync) rather than one per document.
        If an insert fails part-way (duplicate key), the documents
        applied before the failure are persisted before the error
        propagates — mirroring the in-memory semantics, where they
        remain inserted.
        """
        self._mutations += 1
        if self._engine is None:
            return [self._insert_local(d)["_id"] for d in documents]
        ids: List[Any] = []
        operations: List[Tuple[int, bytes, Optional[bytes]]] = []
        try:
            for document in documents:
                doc = self._insert_local(document)
                operations.append(
                    (OP_PUT, key_bytes([doc["_id"]]), encode_document(doc))
                )
                ids.append(doc["_id"])
        finally:
            self._engine.apply_batch(operations)
        return ids

    def delete_many(self, query: Mapping[str, Any]) -> int:
        """Delete matching documents; returns the count."""
        self._mutations += 1
        matcher = Matcher(query)
        doomed = [
            (rid, doc)
            for rid, doc in self._records.items()
            if matcher.matches(doc)
        ]
        for rid, doc in doomed:
            for index in self._indexes.values():
                index.remove_document(rid, doc)
            del self._records[rid]
            del self._shapes[rid]
        if self._engine is not None and doomed:
            self._engine.apply_batch(
                [
                    (OP_DELETE, key_bytes([doc["_id"]]), None)
                    for _, doc in doomed
                ]
            )
        return len(doomed)

    _UPDATE_OPERATORS = {
        "$set", "$unset", "$inc", "$mul", "$min", "$max", "$push",
    }

    def update_many(
        self, query: Mapping[str, Any], update: Mapping[str, Any]
    ) -> int:
        """Apply an update document to matching documents.

        Supports ``$set``, ``$unset``, ``$inc``, ``$mul``, ``$min``,
        ``$max``, and ``$push``; indexes are maintained through the
        change.  Returns the number of documents modified.

        Two operators on one path, or on a path and its prefix, are
        rejected before anything changes, as MongoDB rejects them.  A
        ``$push`` onto a field that holds something other than an array
        raises :class:`DocumentStoreError` and leaves that document
        unchanged.  The documents updated before it stay updated, and
        with durability on they are persisted before the error
        propagates (as :meth:`insert_many` does).
        """
        unknown = set(update) - self._UPDATE_OPERATORS
        if unknown:
            raise DocumentStoreError(
                "unsupported update operators %r" % sorted(unknown)
            )
        paths = [path for fields in update.values() for path in fields]
        for i, path in enumerate(paths):
            for other in paths[i + 1:]:
                if (
                    path == other
                    or other.startswith(path + ".")
                    or path.startswith(other + ".")
                ):
                    raise DocumentStoreError(
                        "updating %r and %r would conflict" % (path, other)
                    )
        self._mutations += 1
        matcher = Matcher(query)
        touched = 0
        operations: List[Tuple[int, bytes, Optional[bytes]]] = []
        try:
            for rid, doc in list(self._records.items()):
                if not matcher.matches(doc):
                    continue
                self._check_update(doc, update)
                for index in self._indexes.values():
                    index.remove_document(rid, doc)
                self._apply_update(doc, update)
                for index in self._indexes.values():
                    index.insert_document(rid, doc)
                self._shapes[rid] = self._shared(shape_of(doc))
                if self._engine is not None:
                    operations.append(
                        (OP_PUT, key_bytes([doc["_id"]]), encode_document(doc))
                    )
                touched += 1
        finally:
            if self._engine is not None and operations:
                self._engine.apply_batch(operations)
        return touched

    @staticmethod
    def _check_update(doc: dict, update: Mapping[str, Any]) -> None:
        """Raise, before anything changes, if ``update`` cannot apply."""
        for path in update.get("$push", {}):
            current = get_path(doc, path)
            if current is not MISSING and not isinstance(current, list):
                raise DocumentStoreError(
                    "$push needs an array at %r, the document %r holds %s"
                    % (path, doc.get("_id"), type(current).__name__)
                )

    @staticmethod
    def _apply_update(doc: dict, update: Mapping[str, Any]) -> None:
        from repro.docstore import bson

        # Values are the caller's: every document stores its own copy.
        for path, value in update.get("$set", {}).items():
            set_path(doc, path, _fast_copy_value(value))
        for path in update.get("$unset", {}):
            unset_path(doc, path)
        for path, delta in update.get("$inc", {}).items():
            current = get_path(doc, path)
            base = current if isinstance(current, (int, float)) else 0
            set_path(doc, path, base + delta)
        for path, factor in update.get("$mul", {}).items():
            current = get_path(doc, path)
            base = current if isinstance(current, (int, float)) else 0
            set_path(doc, path, base * factor)
        for path, value in update.get("$min", {}).items():
            current = get_path(doc, path)
            if current is MISSING or bson.compare(value, current) < 0:
                set_path(doc, path, _fast_copy_value(value))
        for path, value in update.get("$max", {}).items():
            current = get_path(doc, path)
            if current is MISSING or bson.compare(value, current) > 0:
                set_path(doc, path, _fast_copy_value(value))
        for path, value in update.get("$push", {}).items():
            current = get_path(doc, path)
            if current is MISSING:
                current = []
            set_path(doc, path, current + [_fast_copy_value(value)])

    # -- indexes ---------------------------------------------------------------

    def create_index(
        self,
        spec: Sequence[Tuple[str, Any]] | Mapping[str, Any],
        name: str = "",
        unique: bool = False,
        geohash_bits: int = 26,
    ) -> str:
        """Create (and build) a secondary index; returns its name."""
        definition = IndexDefinition.from_spec(
            spec, name=name, unique=unique, geohash_bits=geohash_bits
        )
        if definition.name in self._indexes:
            raise IndexError_("index %r already exists" % definition.name)
        self._indexes[definition.name] = self._built_index(
            definition, self._records
        )
        self._mutations += 1
        return definition.name

    def drop_index(self, name: str) -> None:
        """Remove a secondary index by name."""
        if name == "_id_":
            raise IndexError_("the _id index cannot be dropped")
        if name not in self._indexes:
            raise IndexError_("no index named %r" % name)
        del self._indexes[name]
        self._mutations += 1

    def list_indexes(self) -> List[str]:
        """Names of all indexes, ``_id_`` included."""
        return list(self._indexes)

    def get_index(self, name: str) -> Index:
        """The live index object for a name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise IndexError_("no index named %r" % name) from None

    # -- reads -----------------------------------------------------------------

    def find_with_stats(
        self,
        query: Mapping[str, Any],
        hint: Optional[str] = None,
        max_geo_ranges: Optional[int] = None,
        matcher: Optional[Matcher] = None,
        shape=None,
        plan_bounds=None,
    ) -> FindResult:
        """Execute a query, returning documents + plan + stats.

        Candidate plans are ranked by cost estimates (fast,
        deterministic).  ``matcher``/``shape`` accept pre-compiled
        forms of the same query (the mongos router analyses once and
        shares with every targeted shard).  ``plan_bounds`` is the
        third sharable piece: hinted index bounds depend only on the
        index *definition* and the query shape, so the router builds
        them once (see :meth:`hinted_bounds`) instead of once per
        shard.
        """
        plan_started = time.perf_counter()
        if matcher is None:
            matcher = Matcher(query)
        if shape is None:
            shape = analyze_query(query)
        if (
            plan_bounds is not None
            and hint is not None
            and hint in self._indexes
        ):
            plan: IndexScanPlan | CollScanPlan = IndexScanPlan.from_bounds(
                self._indexes[hint], plan_bounds
            )
        else:
            plan = plan_query(
                shape,
                list(self._indexes.values()),
                collection_size=len(self._records),
                hint=hint,
                max_geo_ranges=max_geo_ranges,
            )
        plan_ms = (time.perf_counter() - plan_started) * 1000.0
        rids, stats = execute_plan(plan, self._records, matcher)
        stats.stage_times_ms["plan"] = plan_ms
        # Each result is copied along its stored shape: the caller owns
        # it, and no field's type is tested again.
        records = self._records
        shapes = self._shapes
        documents = [shapes[rid](records[rid]) for rid in rids]
        return FindResult(documents, stats, plan)

    def hinted_bounds(self, hint: str, shape, max_geo_ranges=None):
        """``(bounds, n_bounded, exact_paths)`` for the hint, or None.

        Bounds depend only on the index definition and the query
        shape — both identical on every shard of a collection — so the
        router computes them against one shard and shares the result
        via ``find_with_stats(plan_bounds=...)``.  Returns None when
        the hint names no index or the index is unusable; callers then
        fall back to per-shard planning (and its PlanError parity).
        """
        index = self._indexes.get(hint)
        if index is None:
            return None
        from repro.docstore.planner import build_bounds_for_index

        return build_bounds_for_index(index, shape, max_geo_ranges)

    def find(
        self,
        query: Mapping[str, Any] | None = None,
        projection: Optional[Mapping[str, Any]] = None,
        hint: Optional[str] = None,
    ) -> Cursor:
        """Matching documents as a chainable cursor."""
        result = self.find_with_stats(query or {}, hint=hint)
        documents = result.documents
        if projection:
            documents = run_pipeline(documents, [{"$project": projection}])
        return Cursor(documents)

    def find_one(
        self, query: Mapping[str, Any] | None = None
    ) -> Optional[dict]:
        """The first matching document, or None."""
        return self.find(query).first()

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Number of documents matching the query."""
        if not query:
            return len(self._records)
        return len(self.find_with_stats(query).documents)

    def explain(
        self, query: Mapping[str, Any], hint: Optional[str] = None
    ) -> dict:
        """MongoDB-flavoured explain output with execution stats.

        Includes ``rejectedPlans`` — the candidate plans the optimizer
        considered but did not pick, as MongoDB's explain does — and,
        on the winning plan, ``coveredPaths`` (proved by exact index
        bounds) beside ``residualPaths`` (what FETCH still filters on).
        """
        from repro.docstore.planner import plan_candidates

        matcher = Matcher(query)
        result = self.find_with_stats(query, hint=hint, matcher=matcher)
        shape = analyze_query(query)
        winner = result.plan.describe()
        # MongoDB's FETCH `filter`: what is left once the winning
        # plan's exact bounds have proved their paths.
        winner["residualPaths"] = matcher.residual_paths(
            result.plan.covered_paths
        )
        # Identity is (stage, index), not the full description: the
        # winning plan's cost estimates are advisory and may be zeroed
        # (hinted or single-candidate planning) while the re-ranked
        # candidates below always carry computed estimates.
        winner_id = (winner.get("stage"), winner.get("indexName"))
        rejected = [
            described
            for plan in plan_candidates(shape, list(self._indexes.values()))
            for described in (plan.describe(),)
            if (described.get("stage"), described.get("indexName"))
            != winner_id
        ]
        return {
            "queryPlanner": {
                "winningPlan": winner,
                "rejectedPlans": rejected,
            },
            "executionStats": result.stats.as_dict(),
        }

    def aggregate(self, pipeline: Sequence[Mapping[str, Any]]) -> List[dict]:
        """Run a ``$project``/``$bucketAuto`` pipeline over the collection."""
        return run_pipeline(list(self._records.values()), pipeline)

    # -- internal fast paths (used by the sharding layer) -------------------------

    def iter_index_range(
        self, index_name: str, lo: Tuple, hi: Tuple
    ):
        """Yield ``(rid, document)`` for index keys in ``[lo, hi)``.

        ``lo``/``hi`` are canonical key tuples covering all index
        fields.  This is the chunk-migration fast path: proportional to
        the range size, not the collection size.
        """
        index = self.get_index(index_name)
        width = len(index.definition.fields)
        for key, rid in index.tree.seek(lo):
            if key[:width] >= hi:
                break
            yield rid, self._records[rid]

    def remove_by_rids(self, rids: Sequence[int]) -> int:
        """Remove records by internal id (chunk-migration fast path)."""
        self._mutations += 1
        removed = 0
        operations: List[Tuple[int, bytes, Optional[bytes]]] = []
        for rid in rids:
            doc = self._records.pop(rid, None)
            if doc is None:
                continue
            del self._shapes[rid]
            for index in self._indexes.values():
                index.remove_document(rid, doc)
            if self._engine is not None:
                operations.append(
                    (OP_DELETE, key_bytes([doc["_id"]]), None)
                )
            removed += 1
        if self._engine is not None and operations:
            self._engine.apply_batch(operations)
        return removed

    # -- durability ---------------------------------------------------------------

    @property
    def engine(self) -> Optional[LSMEngine]:
        """The durable engine, or None for the in-memory default."""
        return self._engine

    @property
    def durable(self) -> bool:
        """Whether writes go through the WAL + LSM engine."""
        return self._engine is not None

    @property
    def storage_epoch(self) -> int:
        """Bumped by every flush/compaction; 0 without durability."""
        if self._engine is None:
            return 0
        return self._engine.storage_epoch

    def checkpoint(self) -> None:
        """Flush the memtable so the WAL can be truncated (durable only)."""
        if self._engine is not None:
            self._engine.checkpoint()

    def close(self) -> None:
        """Release the durable engine's files and threads, if any."""
        if self._engine is not None:
            self._engine.close()

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def mutation_count(self) -> int:
        """Logical content epoch (see ``_mutations`` in __init__)."""
        return self._mutations

    def index_definitions(self) -> List[IndexDefinition]:
        """Picklable definitions of every index, ``_id_`` included.

        Snapshot-sync replication ships these instead of the live
        :class:`Index` objects: a replica rebuilds each B-tree from the
        definition plus the document stream, which keeps the wire frame
        small and the rebuild deterministic.
        """
        return [index.definition for index in self._indexes.values()]

    def all_documents(self) -> Iterable[Mapping[str, Any]]:
        """Storage view of all documents (do not mutate)."""
        return self._records.values()

    def data_size(self) -> int:
        """Uncompressed BSON bytes of all documents."""
        return self.storage_model.data_size(self._records.values())

    def storage_size(self) -> int:
        """Block-compressed collection bytes.

        With durability on, tombstones for deleted documents still
        occupy run storage until compaction drops them; they are
        charged here so the reported footprint matches the on-disk
        reality rather than only the live set.
        """
        return self.storage_model.storage_size(
            self._records.values(), tombstone_bytes=self._tombstone_bytes()
        )

    def _tombstone_bytes(self) -> int:
        if self._engine is None:
            return 0
        return self._engine.stats().tombstone_bytes

    def index_sizes(self) -> Dict[str, int]:
        """Prefix-compressed size per index, in bytes."""
        return {
            name: self.storage_model.index_size(index)
            for name, index in self._indexes.items()
        }

    def total_index_size(self) -> int:
        """Sum of all index sizes in bytes."""
        return sum(self.index_sizes().values())

    def stats(self) -> dict:
        """A ``collStats``-style summary.

        The data size is computed once and the storage size derived
        from it (``storage_size_from_data``), so the document iterable
        is walked a single time — the old shape consumed it twice,
        which under-reported whenever the source was a generator.
        """
        data_size = self.data_size()
        summary = {
            "count": len(self._records),
            "size": data_size,
            "storageSize": self.storage_model.storage_size_from_data(
                data_size, tombstone_bytes=self._tombstone_bytes()
            ),
            "nindexes": len(self._indexes),
            "indexSizes": self.index_sizes(),
            "totalIndexSize": self.total_index_size(),
        }
        if self._engine is not None:
            engine = self._engine.stats()
            summary["durability"] = {
                "runs": engine.n_runs,
                "runBytes": engine.run_bytes,
                "walSegments": engine.wal_segments,
                "memtableBytes": engine.memtable_bytes,
                "tombstoneBytes": engine.tombstone_bytes,
                "storageEpoch": engine.storage_epoch,
                "flushes": engine.flushes,
                "compactions": engine.compactions,
            }
        return summary
