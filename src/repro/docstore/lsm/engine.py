"""The LSM engine: WAL + memtable + runs + background compaction.

One :class:`LSMEngine` owns one directory::

    MANIFEST.json     the list of live runs (oldest -> newest) and the
                      next file number; rewritten atomically on every
                      flush/compaction
    wal-XXXXXXXX.log  WAL segments covering the *current* memtable;
                      deleted once a flush makes their records durable
                      in a run
    run-XXXXXXXX.sst  immutable sorted runs

**Write path.**  ``apply_batch`` appends the batch to the WAL (which
blocks for fsync under the ``always`` policy), applies it to the
memtable, and — if the memtable exceeded its budget — flushes inline.
A flush is failure-first: the memtable is written out as a new run and
the manifest swapped *while the memtable and its WAL segments are
still live*, so an error anywhere before the manifest commit (ENOSPC
mid-run, a failed rename) leaves the engine exactly as it was.  Only
after the commit point is the memtable replaced and are the
now-covered WAL segments deleted.

**Read path.**  ``get`` consults the memtable first, then runs newest
to oldest; the first hit (value or tombstone) wins.  Runs are immutable
and read via ``pread``, so reads never block compaction or each other.
Compaction retires its inputs by *unlinking without closing*: a reader
that snapshotted the run list just before the swap keeps reading the
unlinked files safely, and the descriptors close once the last
reference drops.

**Locks** (ranks registered with the lock-order sanitizer):

* ``_write_lock``    serializes writers, flushes, and memtable reads;
* ``_manifest_lock`` guards the run list and the ``_next_file``
  counter (flushes and the compactor allocate file numbers
  concurrently); the compactor's condition variable rides it.

The only nesting is ``_write_lock`` -> ``_manifest_lock`` (flush swaps
the manifest while holding the write lock) and ``_write_lock`` ->
``WriteAheadLog._lock`` (appending during a write).  The compaction
worker takes ``_manifest_lock`` alone and performs the actual merge
with *no* lock held — its inputs are immutable runs — so it can never
participate in an inversion with the write path.

**Recovery.**  ``recover()`` deletes orphan temp files and runs that a
crash left outside the manifest, opens the manifest's runs, and
replays every WAL segment (in segment order) into a fresh memtable.
Replay stops at the first torn or corrupt frame; everything acknowledged
before the crash is therefore visible, and a partially-flushed state
converges because re-applying a put is idempotent.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.docstore.lsm.compaction import merge_runs, pick_compaction
from repro.docstore.lsm.memtable import Memtable
from repro.docstore.lsm.sstable import (
    SSTable,
    _fsync_directory,
    write_sstable,
)
from repro.docstore.lsm.wal import (
    OP_DELETE,
    OP_PUT,
    SYNC_BATCH,
    WalRecord,
    WriteAheadLog,
    iter_wal_records,
)
from repro.errors import DocumentStoreError

__all__ = ["DurabilityConfig", "LSMEngine"]

_MANIFEST = "MANIFEST.json"

#: The compactor's bounded wait between trigger checks.
_COMPACT_WAIT_S = 0.1


@dataclass(frozen=True)
class DurabilityConfig:
    """How (and where) a collection persists its writes.

    Passing one of these as ``Collection(durability=...)`` mounts an
    LSM engine under the collection; ``None`` (the default everywhere)
    keeps the original in-memory engine untouched.
    """

    #: Root directory for engine files.  Databases and shards derive
    #: per-collection subdirectories from this root.
    directory: str
    #: WAL fsync policy: ``"always"``, ``"batch"``, or ``"off"``.
    sync: str = SYNC_BATCH
    #: Memtable budget; exceeding it triggers a flush to a new run.
    memtable_max_bytes: int = 4 * 1024 * 1024
    #: Group-commit threshold for the ``batch`` sync policy.
    wal_batch_bytes: int = 64 * 1024
    #: Size-tiered trigger: merge a band once it holds this many runs.
    compaction_min_runs: int = 4
    #: Start the background compaction worker.
    compaction: bool = True
    #: Sparse-index stride inside each run.
    sparse_interval: int = 16
    #: Bloom-filter budget per key inside each run.
    bloom_bits_per_key: int = 10

    def subdirectory(self, *parts: str) -> "DurabilityConfig":
        """The same config rooted at ``directory/parts...``."""
        return dataclasses.replace(
            self, directory=os.path.join(self.directory, *parts)
        )


@dataclass
class _EngineStats:
    """A point-in-time snapshot of engine composition."""

    n_runs: int = 0
    run_bytes: int = 0
    run_entries: int = 0
    run_tombstone_bytes: int = 0
    memtable_entries: int = 0
    memtable_bytes: int = 0
    memtable_tombstone_bytes: int = 0
    wal_segments: int = 0
    storage_epoch: int = 0
    compactions: int = 0
    flushes: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def tombstone_bytes(self) -> int:
        return self.run_tombstone_bytes + self.memtable_tombstone_bytes


class LSMEngine:
    """A durable key/value engine for one collection's documents.

    Keys are the order-preserving ``key_bytes`` encoding of ``_id``;
    values are codec-encoded documents.  The engine is thread-safe; see
    the module docstring for the locking discipline.
    """

    def __init__(self, config: DurabilityConfig) -> None:
        self.config = config
        self.directory = config.directory
        self._write_lock = threading.Lock()
        self._manifest_lock = threading.Lock()
        self._compact_cond = threading.Condition(self._manifest_lock)
        self._memtable = Memtable()
        self._runs: List[SSTable] = []
        self._wal: Optional[WriteAheadLog] = None
        self._wal_segments: List[str] = []
        self._next_file = 0
        self._opened = False
        self._closed = False
        self._storage_epoch = 0
        self._flushes = 0
        self._compactions = 0
        self._compactor: Optional[threading.Thread] = None
        # Set by repro.sanitizer.instrument to hand instrumented locks
        # to WAL segments the engine creates after instrumentation.
        self._wal_lock_factory: Optional[Callable[[], object]] = None

    # -- lifecycle ---------------------------------------------------------------

    def recover(self) -> int:
        """Open the engine, replaying WAL + manifest state from disk.

        Returns the number of WAL records replayed into the memtable.
        (Named ``recover`` rather than ``open`` so the static
        callgraph, which resolves calls by name, never conflates it
        with the builtin ``open`` used for file IO under these locks.)
        """
        os.makedirs(self.directory, exist_ok=True)
        replayed = 0
        with self._write_lock:
            if self._opened:
                raise DocumentStoreError("engine already recovered")
            manifest = self._load_manifest()
            live = set(manifest["runs"])
            for name in sorted(os.listdir(self.directory)):
                path = os.path.join(self.directory, name)
                if name.endswith((".tmp", ".manifest-tmp")):
                    os.remove(path)  # crashed mid-write; never visible
                elif name.endswith(".sst") and name not in live:
                    # Flushed/compacted but never committed.
                    os.remove(path)
            with self._manifest_lock:
                self._runs = [
                    SSTable(os.path.join(self.directory, name))
                    for name in manifest["runs"]
                ]
                self._next_file = manifest["next_file"]
            segments = sorted(
                name
                for name in os.listdir(self.directory)
                if name.startswith("wal-") and name.endswith(".log")
            )
            for name in segments:
                path = os.path.join(self.directory, name)
                for record in iter_wal_records(path):
                    if record.op == OP_PUT:
                        self._memtable.put(record.key, record.value)
                    else:
                        self._memtable.delete(record.key)
                    replayed += 1
                self._wal_segments.append(path)
            # The new segment must be a file no crash has ever touched:
            # appending to a replayed segment with a torn tail would
            # put fresh records *behind* the tear, where replay never
            # reaches them.  The manifest's counter alone cannot
            # guarantee that — it is only written on flush — so advance
            # past every file number present on disk.
            with self._manifest_lock:
                for name in segments:
                    self._next_file = max(
                        self._next_file, int(name[4:12]) + 1
                    )
                for name in live:
                    self._next_file = max(
                        self._next_file, int(name[4:12]) + 1
                    )
                wal_path = os.path.join(
                    self.directory, "wal-%08d.log" % self._next_file
                )
                self._next_file += 1
            self._wal_segments.append(wal_path)
            self._wal = self._make_wal(wal_path)
            if self.config.compaction:
                self._compactor = threading.Thread(
                    target=self._compact_loop,
                    name="lsm-compactor(%s)"
                    % os.path.basename(self.directory),
                    daemon=True,
                )
            self._opened = True
        # Start the worker outside the lock: it immediately takes
        # _manifest_lock, and a thread launched under _write_lock would
        # (to the static analyzer, rightly conservative) look like an
        # acquisition nested inside it.
        if self._compactor is not None:
            self._compactor.start()
        return replayed

    def close(self) -> None:
        """Stop the compactor, sync the WAL, release every file."""
        with self._manifest_lock:
            if self._closed:
                return
            self._closed = True
            self._compact_cond.notify_all()
        if self._compactor is not None:
            self._compactor.join(timeout=10.0)
        with self._write_lock:
            if self._wal is not None:
                self._wal.close()
            with self._manifest_lock:
                for run in self._runs:
                    run.close()

    def _make_wal(self, path: str) -> WriteAheadLog:
        """Open a WAL segment (pure: no engine state is touched)."""
        lock = (
            self._wal_lock_factory()
            if self._wal_lock_factory is not None
            else None
        )
        return WriteAheadLog(
            path,
            sync=self.config.sync,
            batch_bytes=self.config.wal_batch_bytes,
            lock=lock,
        )

    # -- manifest ----------------------------------------------------------------

    def _load_manifest(self) -> dict:
        path = os.path.join(self.directory, _MANIFEST)
        if not os.path.exists(path):
            return {"runs": [], "next_file": 0}
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if "runs" not in manifest or "next_file" not in manifest:
            raise DocumentStoreError("corrupt manifest at %s" % path)
        return manifest

    def _write_manifest_locked(self, runs: List[SSTable]) -> None:
        """Atomically commit ``runs`` as the new manifest.

        Caller holds ``_manifest_lock``.  Takes the *prospective* run
        list rather than reading ``self._runs`` so callers can commit
        first and mutate engine state only once the new manifest is
        durable — the commit point stays ahead of every state swap.
        """
        path = os.path.join(self.directory, _MANIFEST)
        payload = json.dumps(
            {
                "runs": [os.path.basename(r.path) for r in runs],
                "next_file": self._next_file,
            }
        )
        tmp = path + ".manifest-tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename itself must be durable before the caller deletes
        # the WAL segments the new manifest supersedes: with only the
        # old manifest on disk after a crash, recovery would sweep the
        # new run as an orphan — and the WAL that could rebuild it
        # would already be gone.
        _fsync_directory(self.directory)

    def _allocate_file_numbers(self, count: int) -> int:
        """Reserve ``count`` consecutive file numbers; returns the first.

        Every read-modify-write of ``_next_file`` happens under
        ``_manifest_lock``: a flush (holding ``_write_lock``) and the
        background compactor allocate concurrently, and racing
        allocations of the same number would have both sides write —
        and one silently clobber — the same run path.
        """
        with self._manifest_lock:
            first = self._next_file
            self._next_file += count
            return first

    # -- write path --------------------------------------------------------------

    def apply_batch(
        self, operations: Sequence[Tuple[int, bytes, Optional[bytes]]]
    ) -> None:
        """Durably apply ``(op, key, value)`` mutations as one WAL append.

        ``op`` is :data:`~repro.docstore.lsm.wal.OP_PUT` (value bytes)
        or :data:`~repro.docstore.lsm.wal.OP_DELETE` (value ignored).
        Under the ``always`` sync policy the call returns only once the
        batch is fsync-durable.
        """
        if not operations:
            return
        self._ensure_open()
        records = [
            WalRecord(op=op, key=key, value=value or b"")
            for op, key, value in operations
        ]
        with self._write_lock:
            assert self._wal is not None
            self._wal.append(records)
            for record in records:
                if record.op == OP_PUT:
                    self._memtable.put(record.key, record.value)
                else:
                    self._memtable.delete(record.key)
            over_budget = (
                self._memtable.approximate_bytes
                >= self.config.memtable_max_bytes
            )
        if over_budget:
            # Re-checked under the lock inside _flush: if a concurrent
            # writer flushed first, this is a no-op.
            self._flush(force=False)

    def put_one(self, key: bytes, value: bytes) -> None:
        """Durably store one key."""
        self.apply_batch([(OP_PUT, key, value)])

    def delete_one(self, key: bytes) -> None:
        """Durably tombstone one key."""
        self.apply_batch([(OP_DELETE, key, None)])

    def checkpoint(self) -> None:
        """Flush the memtable (if dirty) so the WAL can be truncated."""
        self._ensure_open()
        self._flush(force=True)

    def _flush(self, force: bool) -> None:
        """Write the memtable out as a new run, then swap engine state.

        A no-op if there is nothing to do: the budget check re-runs
        under the lock, so concurrent writers racing toward the same
        trigger produce exactly one flush.

        Ordering is failure-first: the run is written and the manifest
        committed while the memtable and WAL segments are still live,
        so an error at any point up to the commit (ENOSPC mid-run, a
        failed manifest rename) leaves the engine exactly as it was —
        the data stays readable from the memtable and replayable from
        the old WAL.  Only past the commit point does the memtable
        swap out and do the covered segments get deleted.
        """
        with self._write_lock:
            assert self._wal is not None
            if len(self._memtable) == 0:
                return
            if not force and (
                self._memtable.approximate_bytes
                < self.config.memtable_max_bytes
            ):
                return
            first = self._allocate_file_numbers(2)
            run_path = os.path.join(
                self.directory, "run-%08d.sst" % first
            )
            wal_path = os.path.join(
                self.directory, "wal-%08d.log" % (first + 1)
            )
            run = write_sstable(
                run_path,
                self._memtable.sorted_entries(),
                sparse_interval=self.config.sparse_interval,
                bloom_bits_per_key=self.config.bloom_bits_per_key,
            )
            try:
                new_wal = self._make_wal(wal_path)
            except BaseException:
                run.close()
                run.remove()
                raise
            try:
                with self._manifest_lock:
                    # Commit first: the run list only changes once the
                    # new manifest is durable on disk.
                    self._write_manifest_locked(self._runs + [run])
                    self._runs.append(run)
                    self._storage_epoch += 1
                    self._flushes += 1
                    self._compact_cond.notify_all()
            except BaseException:
                new_wal.delete()
                run.close()
                run.remove()
                raise
            # Commit point passed: swap in a fresh memtable and WAL —
            # pure in-memory bookkeeping — and drop the segments the
            # committed run now covers.
            old_segments = list(self._wal_segments)
            old_wal = self._wal
            self._memtable = Memtable()
            self._wal_segments = [wal_path]
            self._wal = new_wal
            old_wal.delete()
            for path in old_segments:
                if path != old_wal.path and os.path.exists(path):
                    os.remove(path)

    # -- read path ---------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """The newest value for ``key``, or ``None`` if absent/deleted."""
        self._ensure_open()
        with self._write_lock:
            found, value = self._memtable.get(key)
        if found:
            return value
        with self._manifest_lock:
            runs = list(self._runs)
        for run in reversed(runs):
            found, value = run.get(key)
            if found:
                return value
        return None

    def scan(self) -> Iterator[Tuple[bytes, bytes]]:
        """All live ``(key, value)`` pairs in key order (no tombstones)."""
        self._ensure_open()
        with self._write_lock:
            memtable_entries = self._memtable.sorted_entries()
            with self._manifest_lock:
                runs = list(self._runs)
        merged: Dict[bytes, Optional[bytes]] = {}
        for run in runs:  # oldest -> newest: later versions overwrite
            for key, value in run.iter_entries():
                merged[key] = value
        for key, value in memtable_entries:
            merged[key] = value
        for key in sorted(merged):
            value = merged[key]
            if value is not None:
                yield key, value

    # -- compaction --------------------------------------------------------------

    def _compact_loop(self) -> None:
        while True:
            with self._manifest_lock:
                while not self._closed and (
                    pick_compaction(self._runs, self.config.compaction_min_runs)
                    is None
                ):
                    self._compact_cond.wait(timeout=_COMPACT_WAIT_S)
                if self._closed:
                    return
            self._compact_once()

    def compact_now(self) -> bool:
        """Run one compaction if the policy has a candidate.

        A synchronous hook for tests and benchmarks running with
        ``compaction=False``; with the background worker enabled the
        two could merge the same inputs and race on file retirement.
        """
        self._ensure_open()
        if self._compactor is not None:
            raise DocumentStoreError(
                "compact_now requires compaction=False "
                "(the background worker owns compaction otherwise)"
            )
        return self._compact_once()

    def _compact_once(self) -> bool:
        """Merge one picked band of runs; False if none was picked."""
        with self._manifest_lock:
            picked = pick_compaction(
                self._runs, self.config.compaction_min_runs
            )
            if picked is None:
                return False
            inputs = [self._runs[i] for i in picked]
            # Tombstones may be dropped only when no *older* run could
            # still hold a shadowed version of the key.
            drop_tombstones = picked[0] == 0
            out_path = os.path.join(
                self.directory, "run-%08d.sst" % self._next_file
            )
            self._next_file += 1
        # Merge outside the lock: inputs are immutable, and only this
        # worker (or compact_now, serialized by the manifest swap below
        # being conditional) retires runs.
        merged = write_sstable(
            out_path,
            merge_runs(inputs, drop_tombstones),
            sparse_interval=self.config.sparse_interval,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
        )
        with self._manifest_lock:
            positions = [
                i for i, run in enumerate(self._runs) if run in inputs
            ]
            if len(positions) != len(inputs):
                # Lost a race with a concurrent compact_now; discard.
                # Never published, so no reader can hold it: closing
                # before the unlink is safe here.
                merged.close()
                merged.remove()
                return False
            keep_before = [
                run
                for i, run in enumerate(self._runs[: positions[0]])
                if run not in inputs
            ]
            keep_after = [
                run
                for run in self._runs[positions[0] :]
                if run not in inputs
            ]
            # The merged run replaces its inputs at the oldest input's
            # position, preserving the oldest->newest manifest order.
            # Commit the swap to disk before rebinding the run list: a
            # failed manifest write must leave the engine on the old
            # (still fully durable) run set.
            new_runs = keep_before + [merged] + keep_after
            self._write_manifest_locked(new_runs)
            self._runs = new_runs
            self._storage_epoch += 1
            self._compactions += 1
        for run in inputs:
            # Unlink without closing: a get()/scan() that snapshotted
            # the run list before the swap may still be pread()ing
            # these files; the descriptors close when the last
            # reference to each reader drops.
            run.remove()
        return True

    # -- introspection -----------------------------------------------------------

    @property
    def storage_epoch(self) -> int:
        """Bumped by every flush and compaction."""
        with self._manifest_lock:
            return self._storage_epoch

    def stats(self) -> _EngineStats:
        """A consistent-enough snapshot for accounting and tests."""
        with self._write_lock:
            memtable_entries = len(self._memtable)
            memtable_bytes = self._memtable.approximate_bytes
            memtable_tombstones = self._memtable.tombstone_bytes
            wal_segments = len(self._wal_segments)
            with self._manifest_lock:
                runs = list(self._runs)
                epoch = self._storage_epoch
                flushes = self._flushes
                compactions = self._compactions
        return _EngineStats(
            n_runs=len(runs),
            run_bytes=sum(r.size_bytes for r in runs),
            run_entries=sum(r.n_entries for r in runs),
            run_tombstone_bytes=sum(r.tombstone_bytes for r in runs),
            memtable_entries=memtable_entries,
            memtable_bytes=memtable_bytes,
            memtable_tombstone_bytes=memtable_tombstones,
            wal_segments=wal_segments,
            storage_epoch=epoch,
            flushes=flushes,
            compactions=compactions,
        )

    def _ensure_open(self) -> None:
        if not self._opened or self._closed:
            raise DocumentStoreError(
                "LSM engine at %s is not open" % self.directory
            )
