"""The sharded cluster: shards + config servers + query routers.

This class plays the role of the paper's 17-VM deployment: 12 shards,
3 config servers, and 2 mongos routers (Section 5.1).  Config servers
hold the :class:`~repro.cluster.catalog.ConfigCatalog`; routers expose
``insert_many``/``find``; shards host the data through
:mod:`repro.docstore`.

Write path mechanics reproduce MongoDB's:

* each insert routes to the chunk covering its shard key;
* a chunk exceeding ``chunk_max_bytes`` splits at the median shard-key
  value of its documents (splitting on the temporal component when one
  Hilbert value overflows a chunk, per Section 4.2.2);
* a chunk whose documents all share one full shard-key value cannot be
  split and is marked *jumbo*;
* after a split, if the cluster is imbalanced, one of the new chunks
  migrates to the least-loaded shard (MongoDB's auto-balancing), which
  is what scatters adjacent key ranges across shards under "default"
  distribution — the effect the paper's zone experiments remove.

``insert_many`` applies these per document to live shards.  The initial
load of an empty collection (``bulk_load``) makes the same decisions —
the same ``_choose_split_key``, ``_relief_shard`` and
:meth:`Balancer.moves` — on ``(shard key, BSON size)`` pairs alone,
where a migration only re-labels a chunk, then places every document
once on the shard its chunk ended on and builds that shard's indexes
bottom-up.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.balancer import Balancer
from repro.cluster.catalog import CollectionMetadata, ConfigCatalog
from repro.cluster.chunk import Chunk, KeyBound, ShardKeyPattern
from repro.cluster.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.cluster.metrics import ClusterQueryStats
from repro.cluster.router import TargetingResult, target_chunks
from repro.cluster.shard import Shard, shard_key_index_name
from repro.cluster.zones import Zone, ZoneSet
from repro.docstore.bson import bson_document_size
from repro.docstore.collection import own_document
from repro.docstore.executor import ExecutionStats
from repro.docstore.lsm import DurabilityConfig
from repro.docstore.matcher import parse_query
from repro.docstore.storage import StorageModel
from repro.errors import ShardingError

__all__ = [
    "ClusterTopology",
    "ClusterMatch",
    "ClusterFindResult",
    "ShardedCluster",
]

DEFAULT_CHUNK_MAX_BYTES = 64 * 1024  # scaled-down stand-in for 64 MB


@dataclass(frozen=True)
class ClusterTopology:
    """Node counts, defaulting to the paper's deployment."""

    n_shards: int = 12
    n_config_servers: int = 3
    n_routers: int = 2

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ShardingError("a cluster needs at least one shard")
        if self.n_config_servers < 1 or self.n_routers < 1:
            raise ShardingError(
                "a cluster needs config servers and routers"
            )


class ClusterFindResult:
    """Merged documents plus cluster execution statistics."""

    def __init__(
        self, documents: List[dict], stats: ClusterQueryStats
    ) -> None:
        self.documents = documents
        self.stats = stats

    def __iter__(self):
        return iter(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


class ClusterMatch:
    """A read's routing and each targeted shard's match, uncopied.

    ``matches`` holds one ``(rids, stats)`` pair per shard of
    ``shard_ids``, in targeting order; ``plan_ms`` is the time spent
    parsing, targeting and building hinted bounds.
    """

    def __init__(
        self,
        shard_ids: List[str],
        broadcast: bool,
        matches: List[Tuple[List[int], ExecutionStats]],
        plan_ms: float,
    ) -> None:
        self.shard_ids = shard_ids
        self.broadcast = broadcast
        self.matches = matches
        self.plan_ms = plan_ms


class ShardedCluster:
    """A MongoDB-like sharded cluster in one process."""

    def __init__(
        self,
        topology: ClusterTopology | None = None,
        chunk_max_bytes: int = DEFAULT_CHUNK_MAX_BYTES,
        storage_model: Optional[StorageModel] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        auto_balance: bool = True,
        durability: Optional["DurabilityConfig"] = None,
    ) -> None:
        self.topology = topology or ClusterTopology()
        self.chunk_max_bytes = chunk_max_bytes
        self.storage_model = storage_model or StorageModel()
        self.cost_model = cost_model
        self.auto_balance = auto_balance
        self.durability = durability
        self.shards: Dict[str, Shard] = {
            "shard%02d" % i: Shard(
                "shard%02d" % i,
                storage_model=self.storage_model,
                durability=durability,
            )
            for i in range(self.topology.n_shards)
        }
        self.catalog = ConfigCatalog()
        self.balancer = Balancer(
            shard_ids=list(self.shards),
            migrate=self._migrate_chunk,
        )
        #: Routing-change counter: bumped on every routing-relevant
        #: metadata change (chunk split/migration, DDL, zones).  Every
        #: read routes from the live chunk map; the counter is the
        #: routing half of :meth:`read_epoch`, which tells a process
        #: worker's forked chunk map from the live one.
        self.metadata_version = 0

    def _bump_metadata_version(self) -> None:
        self.metadata_version += 1

    # -- DDL ------------------------------------------------------------------

    def shard_collection(
        self,
        name: str,
        key_spec: Sequence[Tuple[str, Any]] | Mapping[str, Any],
        strategy: str = "range",
        chunk_max_bytes: Optional[int] = None,
    ) -> CollectionMetadata:
        """Shard a collection; creates the shard-key index on every shard."""
        pattern = ShardKeyPattern.from_spec(key_spec)
        metadata = CollectionMetadata(
            name=name,
            pattern=pattern,
            strategy=strategy,
            chunk_max_bytes=chunk_max_bytes or self.chunk_max_bytes,
        )
        first_shard = next(iter(self.shards))
        metadata.chunks.append(
            Chunk(
                min_key=pattern.global_min(),
                max_key=pattern.global_max(),
                shard_id=first_shard,
            )
        )
        self.catalog.add_collection(metadata)
        index_spec = [
            (path, 1 if kind == 1 else "hashed")
            for path, kind in pattern.fields
        ]
        for shard in self.shards.values():
            shard.collection(name).create_index(
                index_spec, name=shard_key_index_name(pattern)
            )
        self._bump_metadata_version()
        return metadata

    def create_index(
        self,
        collection: str,
        spec: Sequence[Tuple[str, Any]] | Mapping[str, Any],
        name: str = "",
        geohash_bits: int = 26,
    ) -> None:
        """Create a local secondary index on every shard."""
        for shard in self.shards.values():
            shard.collection(collection).create_index(
                spec, name=name, geohash_bits=geohash_bits
            )
        self._bump_metadata_version()

    def drop_index(self, collection: str, name: str) -> None:
        """Drop a secondary index from every shard."""
        for shard in self.shards.values():
            shard.collection(collection).drop_index(name)
        self._bump_metadata_version()

    # -- writes ------------------------------------------------------------------

    def insert_one(self, collection: str, document: Mapping[str, Any]) -> None:
        """Route and insert a single document."""
        self.insert_many(collection, [document])

    def insert_many(
        self, collection: str, documents: Iterable[Mapping[str, Any]]
    ) -> int:
        """Route and insert documents; auto-split/balance as chunks grow."""
        metadata = self.catalog.get(collection)
        inserted = 0
        dirty: List[Chunk] = []
        for document in documents:
            key = metadata.pattern.extract_canonical(document)
            chunk = metadata.chunk_for_key(key)
            self.shards[chunk.shard_id].collection(collection).insert_one(
                document
            )
            chunk.doc_count += 1
            chunk.byte_size += bson_document_size(document)
            inserted += 1
            if chunk.byte_size > metadata.chunk_max_bytes and not chunk.jumbo:
                self._split_chunk(metadata, chunk)
        return inserted

    def is_empty(self, collection: str) -> bool:
        """Whether no shard holds a document of the collection."""
        return not any(
            len(shard.collection(collection)) for shard in self.shards.values()
        )

    def bulk_load(
        self, collection: str, documents: Iterable[Mapping[str, Any]]
    ) -> int:
        """Load an empty collection: plan on keys, place once, build.

        Ends where ``insert_many(documents)`` followed by
        ``run_balancer`` ends — the same chunk boundaries, placement,
        ``doc_count``, ``byte_size`` and ``jumbo`` flags, the same
        documents on the same shards — without inserting, sizing or
        moving any document twice: each document's shard key and BSON
        size are computed once, :meth:`_plan_layout` replays the split,
        relief and balancer decisions on those pairs, and each shard
        then receives its documents in arrival order through
        :meth:`Collection.bulk_load` (one bottom-up build per index,
        one WAL batch on durable deployments).  One
        ``metadata_version`` bump.  A duplicate key raises with the
        collection still empty.
        """
        metadata = self.catalog.get(collection)
        if not self.is_empty(collection):
            raise ShardingError(
                "bulk_load needs an empty collection; insert_many is the "
                "path into %r once it holds documents" % collection
            )
        docs = [own_document(document) for document in documents]
        placed = []
        try:
            chunks, members = self._plan_layout(
                metadata,
                [metadata.pattern.extract_canonical(doc) for doc in docs],
                [bson_document_size(doc) for doc in docs],
            )
            arrivals: Dict[str, List[int]] = {}
            for chunk in chunks:
                arrivals.setdefault(chunk.shard_id, []).extend(
                    members.pop(chunk.min_key)
                )
            for shard_id, seqs in arrivals.items():
                if not seqs:
                    continue
                seqs.sort()
                shard_collection = self.shards[shard_id].collection(collection)
                placed.append(shard_collection)
                shard_collection.bulk_load([docs[seq] for seq in seqs])
            metadata.chunks[:] = chunks
        except BaseException:
            # Documents the catalog does not route to must not stay.
            for shard_collection in placed:
                shard_collection.delete_many({})
            raise
        finally:
            self._bump_metadata_version()
        return len(docs)

    def _plan_layout(
        self,
        metadata: CollectionMetadata,
        keys: List[KeyBound],
        sizes: List[int],
    ) -> Tuple[List[Chunk], Dict[KeyBound, List[int]]]:
        """The chunk map an empty collection reaches by ``insert_many``
        of documents with these shard keys and sizes, then a balancer
        round — computed on a copy of the metadata, touching no shard.

        Returns the planned chunks and, per chunk ``min_key``, the
        arrival numbers of its documents in arrival order.
        """
        plan = dataclasses.replace(
            metadata, chunks=[dataclasses.replace(c) for c in metadata.chunks]
        )
        members: Dict[KeyBound, List[int]] = {
            chunk.min_key: [] for chunk in plan.chunks
        }
        for seq, key in enumerate(keys):
            chunk = plan.chunk_for_key(key)
            inside = members[chunk.min_key]
            inside.append(seq)
            chunk.doc_count += 1
            chunk.byte_size += sizes[seq]
            if chunk.byte_size <= plan.chunk_max_bytes or chunk.jumbo:
                continue
            split_key = self._choose_split_key(
                sorted(keys[i] for i in inside), chunk
            )
            if split_key is None:
                plan.mark_jumbo(chunk)
                continue
            left, right = plan.split_chunk(chunk, split_key)
            members[left.min_key] = [i for i in inside if keys[i] < split_key]
            members[right.min_key] = [
                i for i in inside if not keys[i] < split_key
            ]
            for part in (left, right):
                part.doc_count = len(members[part.min_key])
                part.byte_size = sum(sizes[i] for i in members[part.min_key])
            if self.auto_balance:
                # A migration while planning re-labels: no data to move.
                right.shard_id = self._relief_shard(plan, right)
        for chunk, dest in self.balancer.moves(plan):
            chunk.shard_id = dest
        return plan.chunks, members

    def delete_many(
        self, collection: str, query: Mapping[str, Any]
    ) -> int:
        """Delete matching documents on every targeted shard.

        The targeted chunks' document/byte counters are recounted
        afterwards: routing is a conservative superset of the matching
        keys, so every deleted document sat in a targeted chunk.
        """
        metadata = self.catalog.get(collection)
        # Parsing validates: a malformed query raises QueryError before
        # any shard is touched.
        shape, matcher = parse_query(query)
        targeting = target_chunks(metadata, shape)
        deleted = 0
        for shard_id in targeting.shard_ids:
            deleted += self.shards[shard_id].collection(collection).delete_many(
                query, matcher=matcher
            )
        if deleted:
            for chunk in targeting.chunks:
                self._recount_chunk(metadata, chunk)
        return deleted

    def update_many(
        self,
        collection: str,
        query: Mapping[str, Any],
        update: Mapping[str, Any],
    ) -> int:
        """Apply an update on every targeted shard.

        Updates must not modify shard-key fields (MongoDB enforces the
        same restriction for pre-4.2 semantics this model follows).  An
        update can grow or shrink documents, so the targeted chunks'
        counters are recounted afterwards, as :meth:`delete_many` does,
        also when a shard's update raises part-way; an oversized chunk
        is not split here.
        """
        metadata = self.catalog.get(collection)
        forbidden = set(metadata.pattern.paths)
        for section in ("$set", "$unset", "$inc", "$mul", "$min", "$max"):
            touched = set(update.get(section, {}))
            if touched & forbidden:
                raise ShardingError(
                    "update would modify shard-key fields %r"
                    % sorted(touched & forbidden)
                )
        # Parsing validates, as in delete_many.
        shape, matcher = parse_query(query)
        targeting = target_chunks(metadata, shape)
        updated = 0
        failed = True
        try:
            for shard_id in targeting.shard_ids:
                updated += self.shards[shard_id].collection(
                    collection
                ).update_many(query, update, matcher=matcher)
            failed = False
        finally:
            # A shard that raised may have updated documents first.
            if updated or failed:
                for chunk in targeting.chunks:
                    self._recount_chunk(metadata, chunk)
        return updated

    # -- chunk surgery --------------------------------------------------------------

    def _split_chunk(self, metadata: CollectionMetadata, chunk: Chunk) -> None:
        shard = self.shards[chunk.shard_id]
        keys = shard.shard_key_values_in_range(
            metadata.name, metadata.pattern, chunk.min_key, chunk.max_key
        )
        if not keys:
            return
        split_key = self._choose_split_key(keys, chunk)
        if split_key is None:
            metadata.mark_jumbo(chunk)
            return
        try:
            left, right = metadata.split_chunk(chunk, split_key)
            self._recount_chunk(metadata, left)
            self._recount_chunk(metadata, right)
        finally:
            # split_chunk rewires the chunk list before the recounts
            # run; an unwind out of a recount must not leave the new
            # boundaries visible under the old metadata_version.
            self._bump_metadata_version()
        if self.auto_balance:
            self._migrate_chunk(
                metadata, right, self._relief_shard(metadata, right)
            )

    @staticmethod
    def _choose_split_key(
        keys: List[KeyBound], chunk: Chunk
    ) -> Optional[KeyBound]:
        """Median shard-key value, nudged off the chunk minimum.

        Returns None when every document shares one full shard-key
        value — the jumbo case.
        """
        median = keys[len(keys) // 2]
        if median > chunk.min_key and median > keys[0]:
            return median
        for key in keys[len(keys) // 2 :]:
            if key > keys[0] and key > chunk.min_key:
                return key
        return None

    def _recount_chunk(self, metadata: CollectionMetadata, chunk: Chunk) -> None:
        shard = self.shards[chunk.shard_id]
        count = 0
        size = 0
        for _rid, doc in shard.iter_range(
            metadata.name, metadata.pattern, chunk.min_key, chunk.max_key
        ):
            count += 1
            size += bson_document_size(doc)
        chunk.doc_count = count
        chunk.byte_size = size

    def _relief_shard(
        self, metadata: CollectionMetadata, new_chunk: Chunk
    ) -> str:
        """MongoDB-style top-chunk relief: the shard a just-split chunk
        belongs on — another one when its own holds noticeably more
        chunks than the emptiest shard."""
        counts = {s: 0 for s in self.shards}
        counts.update(metadata.chunk_counts())
        donor = new_chunk.shard_id
        recipient = min(counts, key=lambda s: (counts[s], s))
        if counts[donor] - counts[recipient] <= 1:
            return donor
        if metadata.zone_set is not None:
            zone = metadata.zone_set.zone_for_range(
                new_chunk.min_key, new_chunk.max_key
            )
            if zone is not None:
                return zone.shard_id
        return recipient

    def _migrate_chunk(
        self, metadata: CollectionMetadata, chunk: Chunk, dest_shard_id: str
    ) -> None:
        if dest_shard_id not in self.shards:
            raise ShardingError("unknown shard %r" % dest_shard_id)
        if dest_shard_id == chunk.shard_id:
            return
        source = self.shards[chunk.shard_id]
        moving = source.extract_documents_in_range(
            metadata.name, metadata.pattern, chunk.min_key, chunk.max_key
        )
        self.shards[dest_shard_id].receive_documents(metadata.name, moving)
        chunk.shard_id = dest_shard_id
        self._bump_metadata_version()

    # -- zones -----------------------------------------------------------------------

    def update_zones(self, collection: str, zones: Sequence[Zone]) -> None:
        """Install zones: split chunks at zone boundaries, then move data.

        Mirrors MongoDB applying zones to an already-sharded collection
        (Section 3.3): chunk boundaries are aligned to zone edges and
        the balancer migrates affected chunks to their zones.
        """
        metadata = self.catalog.get(collection)
        zone_set = ZoneSet(zones)
        for shard_id in sorted({z.shard_id for z in zone_set}):
            if shard_id not in self.shards:
                raise ShardingError("zone references unknown shard %r" % shard_id)
        try:
            for boundary in zone_set.boundaries():
                self._split_at(metadata, boundary)
            metadata.zone_set = zone_set
        finally:
            # Each boundary split mutates the chunk list; if a later
            # split raises, the earlier splits are already visible and
            # still need the version bump for cache invalidation.
            self._bump_metadata_version()
        self.balancer.balance(metadata)

    def _split_at(self, metadata: CollectionMetadata, key: KeyBound) -> None:
        if key <= metadata.pattern.global_min():
            return
        if key >= metadata.pattern.global_max():
            return
        chunk = metadata.chunk_for_key(key)
        if chunk.min_key == key:
            return
        left, right = metadata.split_chunk(chunk, key)
        self._recount_chunk(metadata, left)
        self._recount_chunk(metadata, right)

    def run_balancer(self, collection: str) -> int:
        """Run the balancer; returns migrations performed."""
        return self.balancer.balance(self.catalog.get(collection))

    # -- reads ------------------------------------------------------------------------

    def targeting_for(
        self,
        collection: str,
        query: Optional[Mapping[str, Any]] = None,
        shape=None,
        fast_path: bool = True,
    ) -> TargetingResult:
        """The routing decision for a query, without executing it.

        Exposes mongos targeting (which shards must participate and
        whether the operation broadcasts) to callers that need it ahead
        of execution — the :mod:`repro.service` frontend routes each
        read with this, under its lock, before fanning out.  Every call
        walks the live chunk map.  Pass ``shape`` to reuse an
        already-analyzed query; ``fast_path`` is accepted and ignored
        (the perf harness still passes it; ROADMAP item 1(d)).
        """
        metadata = self.catalog.get(collection)
        if shape is None:
            if query is None:
                raise ShardingError("targeting needs a query or a shape")
            shape, _matcher = parse_query(query)
        return target_chunks(metadata, shape)

    def read_epoch(self, collection: str) -> Tuple[Any, ...]:
        """The state a read of ``collection`` sees, as one comparable value.

        ``(metadata_version, each shard's mutation_count of the
        collection)``, in shard order, with None for a shard that has
        never held it.  Routing moves the first part and content or DDL
        the second; looking a collection up does not create it.  The
        process backend ships a read at this epoch to a worker that
        routes with its own forked copy of the chunk map.
        """
        return (
            self.metadata_version,
            tuple(
                shard.database.mutation_count(collection)
                for shard in self.shards.values()
            ),
        )

    def match(
        self,
        collection: str,
        query: Mapping[str, Any],
        hint: Optional[str] = None,
        max_geo_ranges: Optional[int] = None,
        shard_mapper: Optional[Callable] = None,
        shape=None,
        matcher=None,
        targeting: Optional[TargetingResult] = None,
    ) -> ClusterMatch:
        """The plan-and-match step of a read: route it, then run the
        match step on each targeted shard, in targeting order.

        Parses the query (a malformed one raises QueryError here),
        targets it against the live chunk map and builds hinted bounds
        once.  Nothing is copied: each shard answers ``(rids, stats)``
        and :meth:`merge` copies and merges.  ``shard_mapper`` is the
        fan-out hook, with ``map`` semantics —
        ``shard_mapper(fn, shard_ids)`` returns ``fn``'s result per
        shard id, in order; the default visits the shards one after
        another.  ``shape``/``matcher``/``targeting`` accept
        precomputed plan pieces of the same ``query``.
        """
        plan_started = time.perf_counter()
        if shape is None or matcher is None:
            shape, matcher = parse_query(query)
        if targeting is None:
            targeting = target_chunks(self.catalog.get(collection), shape)
        plan_bounds = None
        if hint is not None and targeting.shard_ids:
            # Hinted index bounds are shard-independent (definition +
            # shape only): build them once here instead of once per
            # targeted shard.
            first = self.shards[targeting.shard_ids[0]]
            plan_bounds = first.collection(collection).hinted_bounds(
                hint, shape, max_geo_ranges
            )
        plan_ms = (time.perf_counter() - plan_started) * 1000.0

        def match_shard(shard_id: str):
            col = self.shards[shard_id].collection(collection)
            rids, stats, _plan = col.find_rids(
                query,
                hint=hint,
                max_geo_ranges=max_geo_ranges,
                matcher=matcher,
                shape=shape,
                plan_bounds=plan_bounds,
            )
            return rids, stats

        if shard_mapper is None:
            matches = [match_shard(s) for s in targeting.shard_ids]
        else:
            matches = list(shard_mapper(match_shard, targeting.shard_ids))
        return ClusterMatch(
            list(targeting.shard_ids), targeting.broadcast, matches, plan_ms
        )

    def merge(self, collection: str, match: ClusterMatch) -> ClusterFindResult:
        """The copy-and-merge step of a read, on this process's store.

        Copies each shard's rids out of its collection, concatenates
        the documents in targeting order and merges the counters; the
        modelled execution time is *max over shards* (the cost model's
        reading of Section 5).  A rid a shard does not hold raises
        ``KeyError``.
        """
        copies = [
            self.shards[shard_id].collection(collection).copy_results(rids)
            for shard_id, (rids, _stats) in zip(match.shard_ids, match.matches)
        ]
        merge_started = time.perf_counter()
        stats = ClusterQueryStats(
            targeted_shards=list(match.shard_ids), broadcast=match.broadcast
        )
        documents: List[dict] = []
        for shard_id, (_rids, shard_stats), copied in zip(
            match.shard_ids, match.matches, copies
        ):
            stats.per_shard[shard_id] = shard_stats
            documents.extend(copied)
        stats.execution_time_ms = self.cost_model.query_time_ms(
            stats.per_shard
        )
        merge_ms = (time.perf_counter() - merge_started) * 1000.0
        stage_totals = {"plan": match.plan_ms, "merge": merge_ms}
        for shard_stats in stats.per_shard.values():
            for stage, ms in shard_stats.stage_times_ms.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + ms
        stats.stage_times_ms = stage_totals
        return ClusterFindResult(documents, stats)

    def find(
        self,
        collection: str,
        query: Mapping[str, Any],
        hint: Optional[str] = None,
        max_geo_ranges: Optional[int] = None,
        shard_mapper: Optional[Callable] = None,
        shape=None,
        matcher=None,
        targeting: Optional[TargetingResult] = None,
    ) -> ClusterFindResult:
        """Route, execute on targeted shards, merge, and account time:
        :meth:`match`, then :meth:`merge`; the arguments are
        :meth:`match`'s.

        :class:`repro.service.QueryService`'s thread backend passes
        its mapper, which runs the shards one after another in the
        caller's thread; its process backend ships the whole
        :meth:`match` to a worker and calls :meth:`merge` on the reply.
        Merged documents and statistics are identical either way.
        """
        return self.merge(
            collection,
            self.match(
                collection,
                query,
                hint,
                max_geo_ranges,
                shard_mapper,
                shape,
                matcher,
                targeting,
            ),
        )

    def count_documents(self, collection: str, query: Mapping[str, Any]) -> int:
        """Number of matching documents cluster-wide."""
        return len(self.find(collection, query))

    def aggregate(
        self, collection: str, pipeline: Sequence[Mapping[str, Any]]
    ) -> List[dict]:
        """Run a pipeline over every shard's documents, on the router.

        Nothing runs per shard: the router gathers each shard's
        documents, uncopied, and runs the whole pipeline over them.  The
        pipeline's stages copy what they output, so the caller owns the
        result.
        """
        from repro.docstore.aggregation import run_pipeline

        merged: List[Mapping[str, Any]] = []
        for shard in self.shards.values():
            merged.extend(shard.collection(collection).all_documents())
        return run_pipeline(merged, pipeline)

    # -- introspection ---------------------------------------------------------

    def collection_totals(self, collection: str) -> dict:
        """Cluster-wide size/statistics roll-up for one collection."""
        per_shard = {}
        total_docs = 0
        total_data = 0
        total_index = 0
        for shard_id, shard in self.shards.items():
            col = shard.collection(collection)
            stats = col.stats()
            per_shard[shard_id] = stats
            total_docs += stats["count"]
            total_data += stats["size"]
            total_index += stats["totalIndexSize"]
        return {
            "count": total_docs,
            "dataSize": total_data,
            "totalIndexSize": total_index,
            "shards": per_shard,
        }

    def chunk_distribution(self, collection: str) -> Dict[str, int]:
        """Chunk count per shard for a collection."""
        return self.catalog.get(collection).chunk_counts()

    def validate(self, collection: str) -> None:
        """Cross-check catalog vs shard contents (test support)."""
        metadata = self.catalog.get(collection)
        metadata.validate()
        for chunk in metadata.chunks:
            shard = self.shards[chunk.shard_id]
            actual = sum(
                1
                for _ in shard.iter_range(
                    metadata.name,
                    metadata.pattern,
                    chunk.min_key,
                    chunk.max_key,
                )
            )
            if actual != chunk.doc_count:
                # Chunk counters are maintained incrementally; recount
                # drift indicates a bookkeeping bug.
                raise ShardingError(
                    "chunk %r count drift: catalog=%d actual=%d"
                    % (chunk.describe(), chunk.doc_count, actual)
                )

    def close(self) -> None:
        """Release every shard's durable engines, if any."""
        for shard in self.shards.values():
            shard.close()
