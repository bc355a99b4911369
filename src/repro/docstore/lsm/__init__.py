"""A durable LSM storage engine beneath the document store.

The paper's evaluation assumes trajectories already reside in MongoDB;
the reproduction likewise held every document in memory, so the system
was read-mostly and forgot everything on crash.  This package adds the
write path a real fleet platform needs — continuous GPS ingest that
survives a process kill — with the same architecture WiredTiger's
LSM trees and the HBase-backed spatio-temporal stores use:

* :mod:`~repro.docstore.lsm.wal` — an append-only write-ahead log of
  CRC-framed records with group commit and a configurable fsync
  policy;
* :mod:`~repro.docstore.lsm.memtable` — the sorted in-memory buffer
  that absorbs puts and tombstones;
* :mod:`~repro.docstore.lsm.sstable` — immutable sorted runs with
  sparse index blocks and bloom filters;
* :mod:`~repro.docstore.lsm.compaction` — size-tiered merge policy
  executed by the engine's background worker;
* :mod:`~repro.docstore.lsm.engine` — :class:`LSMEngine`, which ties
  the pieces together and replays the WAL on recovery.

:class:`~repro.docstore.collection.Collection` mounts an engine when
constructed with ``durability=``; the default (``None``) preserves the
paper-faithful in-memory behaviour byte for byte.
"""

from repro.docstore.lsm.codec import decode_document, encode_document
from repro.docstore.lsm.engine import DurabilityConfig, LSMEngine
from repro.docstore.lsm.memtable import Memtable
from repro.docstore.lsm.sstable import SSTable, write_sstable
from repro.docstore.lsm.wal import (
    SYNC_ALWAYS,
    SYNC_BATCH,
    SYNC_OFF,
    WalRecord,
    WriteAheadLog,
    iter_wal_records,
)

__all__ = [
    "DurabilityConfig",
    "LSMEngine",
    "Memtable",
    "SSTable",
    "SYNC_ALWAYS",
    "SYNC_BATCH",
    "SYNC_OFF",
    "WalRecord",
    "WriteAheadLog",
    "decode_document",
    "encode_document",
    "iter_wal_records",
    "write_sstable",
]
