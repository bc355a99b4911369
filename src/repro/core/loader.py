"""Bulk loading with driver-style ObjectId assignment.

Appendix A.1 of the paper: CSV records are converted to documents and
bulk-inserted in batches of 15 000 through the two query routers, with
``_id`` ObjectIds assigned by the client driver at insert time.

The insert-time id assignment matters: ObjectIds share a timestamp
prefix when generated close together, which drives the ``_id`` index
prefix-compression effect in Fig. 14.  The loader therefore advances a
simulated driver clock as it loads, so id prefixes correlate with load
order exactly as they would in a real ingest.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.cluster.cluster import ShardedCluster
from repro.docstore.bson import ObjectId

__all__ = ["BulkLoader", "DEFAULT_BATCH_SIZE", "load_transformed"]

#: The batch size the paper uses for bulk insertion.
DEFAULT_BATCH_SIZE = 15_000


@dataclass
class BulkLoader:
    """Loads documents into a sharded collection, then balances it.

    Into a collection that holds no documents — every fresh deployment
    — the load is the cluster's bulk path
    (:meth:`ShardedCluster.bulk_load`): the chunk layout is planned on
    shard keys, each document is placed once on its final shard, the
    indexes are built bottom-up.  Into one that already holds
    documents it is the live path: ``insert_many`` batch by batch, then
    a balancer round.  Both end in the same state.

    Parameters
    ----------
    batch_size:
        Documents per ``insert_many`` call on the live path (paper:
        15 000), which is also how many prepared documents are in
        flight at once there.  The bulk path plans the whole stream
        and does not batch.
    docs_per_second:
        Simulated driver ingest rate; controls how fast ObjectId
        timestamps advance during the load.
    start_time:
        Simulated wall-clock at load start (defaults to the paper's
        experiment era).
    transform:
        Optional per-document transform applied before insert — the
        hook where Hilbert approaches add ``hilbertIndex``.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    docs_per_second: float = 2000.0
    start_time: Optional[_dt.datetime] = None
    transform: Optional[Callable[[Mapping], dict]] = None

    def load(
        self,
        cluster: ShardedCluster,
        collection: str,
        documents: Iterable[Mapping],
    ) -> int:
        """Insert all documents and balance; returns the count loaded."""
        prepared = self._prepared(documents)
        if cluster.is_empty(collection):
            return cluster.bulk_load(collection, prepared)
        loaded = 0
        while batch := list(itertools.islice(prepared, self.batch_size)):
            loaded += cluster.insert_many(collection, batch)
        cluster.run_balancer(collection)
        return loaded

    def _prepared(self, documents: Iterable[Mapping]) -> Iterator[dict]:
        """Transformed copies with driver-clock ``_id``s, in order."""
        start = self.start_time or _dt.datetime(
            2018, 12, 1, tzinfo=_dt.timezone.utc
        )
        base_ts = start.timestamp()
        rng_bytes = b"\x51\x1e\x77\xab\x09"  # fixed driver "machine id"
        for loaded, doc in enumerate(documents):
            prepared = dict(self.transform(doc)) if self.transform else dict(doc)
            if "_id" not in prepared:
                prepared["_id"] = ObjectId(
                    timestamp=base_ts + loaded / self.docs_per_second,
                    random_bytes=rng_bytes,
                    counter=loaded,
                )
            yield prepared


def load_transformed(
    cluster: ShardedCluster,
    collection: str,
    documents: Iterable[Mapping],
    transform: Callable[[Mapping], dict],
    loader: Optional[BulkLoader] = None,
) -> int:
    """Load with a deployment's own ``transform``, keeping the other
    settings of ``loader`` (the defaults when None)."""
    loader = dataclasses.replace(loader or BulkLoader(), transform=transform)
    return loader.load(cluster, collection, documents)
