"""Databases: namespaces of collections, as in MongoDB."""

from __future__ import annotations

import shutil
import threading
from typing import Dict, List, Optional

from repro.docstore.collection import Collection
from repro.docstore.lsm import DurabilityConfig
from repro.docstore.storage import StorageModel
from repro.errors import DocumentStoreError

__all__ = ["Database"]


class Database:
    """A named group of collections sharing a storage model.

    With ``durability`` set, every collection mounts an LSM engine
    rooted at ``durability.directory/<collection-name>``; the default
    (``None``) keeps collections purely in-memory.
    """

    def __init__(
        self,
        name: str,
        storage_model: Optional[StorageModel] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self.name = name
        self.storage_model = storage_model or StorageModel()
        self.durability = durability
        self._collections: Dict[str, Collection] = {}
        # Lazy creation below must be race-free: two concurrent readers
        # naming a new collection would otherwise each build one and
        # the loser's documents/indexes would vanish.
        self._create_lock = threading.Lock()

    def collection(self, name: str) -> Collection:
        """Get or lazily create a collection (MongoDB semantics)."""
        existing = self._collections.get(name)
        if existing is not None:
            return existing
        with self._create_lock:
            if name not in self._collections:
                durability = None
                if self.durability is not None:
                    durability = self.durability.subdirectory(name)
                self._collections[name] = Collection(
                    name,
                    storage_model=self.storage_model,
                    durability=durability,
                )
            return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def drop_collection(self, name: str) -> None:
        """Remove a collection from the namespace (and its files)."""
        with self._create_lock:
            if name not in self._collections:
                raise DocumentStoreError("no collection named %r" % name)
            doomed = self._collections.pop(name)
        doomed.close()
        if doomed.engine is not None:
            shutil.rmtree(doomed.engine.directory, ignore_errors=True)

    def close(self) -> None:
        """Release every collection's durable engine, if any."""
        for collection in list(self._collections.values()):
            collection.close()

    def mutation_count(self, name: str) -> Optional[int]:
        """A collection's ``mutation_count``, or None when it does not
        exist — looked up without creating it."""
        existing = self._collections.get(name)
        return None if existing is None else existing.mutation_count

    def list_collections(self) -> List[str]:
        """Names of the existing collections."""
        return list(self._collections)

    def stats(self) -> dict:
        """A dbStats-style summary."""
        return {
            "db": self.name,
            "collections": len(self._collections),
            "objects": sum(len(c) for c in self._collections.values()),
            "dataSize": sum(
                c.data_size() for c in self._collections.values()
            ),
            "totalIndexSize": sum(
                c.total_index_size() for c in self._collections.values()
            ),
        }
