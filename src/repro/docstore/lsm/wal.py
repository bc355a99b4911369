"""The write-ahead log: CRC-framed records, group commit, fsync policy.

Every mutation is appended here before it is applied to the memtable,
so an acknowledged write survives a process kill.  The on-disk format
is a sequence of frames::

    u32 payload-length | u32 crc32(payload) | payload

Replay walks frames from the start and stops at the first torn or
corrupt frame — a crash mid-append loses only the unacknowledged tail,
never earlier records.

**Group commit.**  Writers append under the log lock (the file is
opened unbuffered, so an append is a single OS write) and, under the
``"always"`` policy, wait until the durable LSN catches up with their
own.  One background syncer thread performs the fsyncs: every fsync
covers *all* frames written since the previous one, so N concurrent
writers share one disk flush instead of paying N — the classic group
commit.  Policies:

* ``"always"`` — ``append`` returns only after fsync covers it;
* ``"batch"``  — appends return immediately; the syncer fsyncs when
  ``batch_bytes`` accumulate or on its periodic wakeup (bounded
  staleness, like MongoDB's default ``j: false`` journaling);
* ``"off"``    — no fsync at all (crash durability is then only as
  good as the OS page cache — benchmark mode).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import DocumentStoreError

__all__ = [
    "SYNC_ALWAYS",
    "SYNC_BATCH",
    "SYNC_OFF",
    "WalRecord",
    "WriteAheadLog",
    "iter_wal_records",
]

SYNC_ALWAYS = "always"
SYNC_BATCH = "batch"
SYNC_OFF = "off"

_SYNC_POLICIES = (SYNC_ALWAYS, SYNC_BATCH, SYNC_OFF)

_FRAME_HEADER = struct.Struct("<II")

#: Record operations.
OP_PUT = 1
OP_DELETE = 2

_RECORD_HEADER = struct.Struct("<BI")

#: The syncer's periodic wakeup; bounds batch-mode staleness and lets
#: waiting writers re-check the durable LSN even on missed notifies.
_SYNC_WAIT_S = 0.05


@dataclass(frozen=True)
class WalRecord:
    """One logical WAL record: a put or a tombstone for a key."""

    op: int
    key: bytes
    value: bytes = b""

    def encode(self) -> bytes:
        """The record payload (goes inside one CRC frame)."""
        return (
            _RECORD_HEADER.pack(self.op, len(self.key))
            + self.key
            + self.value
        )

    @classmethod
    def decode(cls, payload: bytes) -> "WalRecord":
        """Parse a payload produced by :meth:`encode`."""
        if len(payload) < _RECORD_HEADER.size:
            raise DocumentStoreError("truncated WAL record payload")
        op, key_len = _RECORD_HEADER.unpack_from(payload, 0)
        if op not in (OP_PUT, OP_DELETE):
            raise DocumentStoreError("unknown WAL op %d" % op)
        start = _RECORD_HEADER.size
        key = payload[start : start + key_len]
        if len(key) != key_len:
            raise DocumentStoreError("truncated WAL record key")
        return cls(op=op, key=key, value=payload[start + key_len :])


def frame(payload: bytes) -> bytes:
    """Wrap a payload in a length+CRC frame."""
    return (
        _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    )


def iter_wal_records(path: str) -> Iterator[WalRecord]:
    """Replay a WAL file, stopping at the first torn/corrupt frame.

    A torn final frame — the shape a crash mid-append leaves behind —
    is *expected*, not an error: recovery keeps every record before it
    and discards the tail (those writes were never acknowledged under
    the ``always`` policy).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    total = len(data)
    while offset + _FRAME_HEADER.size <= total:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            return  # torn final frame
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: stop replay here
        try:
            record = WalRecord.decode(payload)
        except DocumentStoreError:
            # The frame checks out but its content is not a record — a
            # CRC collision on torn or garbage bytes.  That is the same
            # corruption boundary as a failed CRC: stop replay rather
            # than poison recovery with an exception.
            return
        yield record
        offset = end


class WriteAheadLog:
    """An append-only log file with group commit.

    Thread-safe: appends serialize on ``self._lock``; durability waits
    ride ``self._sync_cond`` (always bounded, so a lost wakeup costs at
    most one ``_SYNC_WAIT_S``).
    """

    def __init__(
        self,
        path: str,
        sync: str = SYNC_BATCH,
        batch_bytes: int = 64 * 1024,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        if sync not in _SYNC_POLICIES:
            raise DocumentStoreError(
                "unknown WAL sync policy %r (expected one of %s)"
                % (sync, ", ".join(_SYNC_POLICIES))
            )
        self.path = path
        self.sync_policy = sync
        self.batch_bytes = batch_bytes
        self._lock = threading.Lock()
        if lock is not None:
            # Instrumented stand-in (see repro.sanitizer.instrument).
            self._lock = lock
        self._sync_cond = threading.Condition(self._lock)
        # Unbuffered: each append is one OS write, so the syncer's
        # fsync needs no flush() racing concurrent writers.
        self._file = open(path, "ab", buffering=0)
        self._next_lsn = 0
        self._written_lsn = -1
        self._durable_lsn = -1
        self._pending_bytes = 0
        self._closed = False
        self._syncer: Optional[threading.Thread] = None
        if sync != SYNC_OFF:
            self._syncer = threading.Thread(
                target=self._sync_loop,
                name="wal-syncer(%s)" % os.path.basename(path),
                daemon=True,
            )
            self._syncer.start()

    # -- append path -----------------------------------------------------------

    def append(self, records: Sequence[WalRecord]) -> int:
        """Append records as one contiguous write; returns the last LSN.

        Under the ``always`` policy the call blocks until the records
        are fsync-durable; one background fsync acknowledges every
        writer that appended since the previous fsync (group commit).
        """
        if not records:
            return self._written_lsn
        blob = b"".join(frame(r.encode()) for r in records)
        with self._lock:
            if self._closed:
                raise DocumentStoreError("WAL %s is closed" % self.path)
            self._file.write(blob)
            lsn = self._next_lsn + len(records) - 1
            self._next_lsn += len(records)
            self._written_lsn = lsn
            self._pending_bytes += len(blob)
            if self.sync_policy == SYNC_ALWAYS or (
                self.sync_policy == SYNC_BATCH
                and self._pending_bytes >= self.batch_bytes
            ):
                self._sync_cond.notify_all()
        if self.sync_policy == SYNC_ALWAYS:
            self._wait_durable(lsn)
        return lsn

    def _wait_durable(self, lsn: int) -> None:
        with self._lock:
            while self._durable_lsn < lsn and not self._closed:
                self._sync_cond.wait(timeout=_SYNC_WAIT_S)

    def sync(self) -> None:
        """Force an fsync covering everything appended so far."""
        if self.sync_policy == SYNC_OFF:
            return
        with self._lock:
            target = self._written_lsn
            self._sync_cond.notify_all()
        self._wait_durable(target)

    # -- the group-commit syncer -----------------------------------------------

    def _sync_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not self._closed
                    and self._written_lsn <= self._durable_lsn
                ):
                    self._sync_cond.wait(timeout=_SYNC_WAIT_S)
                if self._written_lsn <= self._durable_lsn:
                    return  # closed and fully durable
                target = self._written_lsn
                self._pending_bytes = 0
            # fsync outside the lock: appends continue concurrently,
            # and this one flush covers every frame up to `target`.
            os.fsync(self._file.fileno())
            with self._lock:
                self._durable_lsn = max(self._durable_lsn, target)
                self._sync_cond.notify_all()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drain the syncer, fsync the tail, and close the file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._sync_cond.notify_all()
        if self._syncer is not None:
            self._syncer.join(timeout=10.0)
        if self.sync_policy != SYNC_OFF:
            os.fsync(self._file.fileno())
        self._file.close()

    def delete(self) -> None:
        """Close and remove the log file (post-flush segment cleanup)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)
