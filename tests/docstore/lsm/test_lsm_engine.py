"""LSMEngine behaviour: writes, flush, compaction, events, stats."""

import os
import threading

import pytest

from repro.docstore.lsm import DurabilityConfig, LSMEngine
from repro.docstore.lsm.wal import OP_DELETE
from repro.errors import DocumentStoreError


def make_engine(tmp_path, **overrides):
    defaults = dict(
        directory=str(tmp_path),
        memtable_max_bytes=2_000,
        compaction_min_runs=2,
        compaction=False,
    )
    defaults.update(overrides)
    engine = LSMEngine(DurabilityConfig(**defaults))
    engine.recover()
    return engine


def fill(engine, n, start=0):
    for i in range(start, start + n):
        engine.put_one(b"key-%05d" % i, b"value-%05d" % i * 4)


class TestReadYourWrites:
    def test_get_after_put_and_delete(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        engine.put_one(b"a", b"1")
        engine.put_one(b"b", b"2")
        engine.apply_batch([(OP_DELETE, b"a", None)])
        assert engine.get(b"a") is None
        assert engine.get(b"b") == b"2"
        assert engine.get(b"absent") is None
        engine.close()

    def test_reads_span_memtable_and_runs(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        fill(engine, 50)
        engine.checkpoint()  # everything now in a run
        engine.put_one(b"key-00000", b"updated")
        engine.apply_batch([(OP_DELETE, b"key-00001", None)])
        assert engine.get(b"key-00000") == b"updated"
        assert engine.get(b"key-00001") is None
        assert engine.get(b"key-00002") == b"value-00002" * 4
        engine.close()

    def test_scan_merges_newest_versions(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        fill(engine, 20)
        engine.checkpoint()
        engine.put_one(b"key-00003", b"fresh")
        engine.apply_batch([(OP_DELETE, b"key-00004", None)])
        live = dict(engine.scan())
        assert live[b"key-00003"] == b"fresh"
        assert b"key-00004" not in live
        assert len(live) == 19
        engine.close()


class TestFlush:
    def test_budget_overflow_flushes_automatically(self, tmp_path):
        engine = make_engine(tmp_path)
        fill(engine, 200)
        stats = engine.stats()
        assert stats.flushes > 0
        assert stats.n_runs > 0
        engine.close()

    def test_flush_deletes_covered_wal_segments(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        fill(engine, 30)
        engine.checkpoint()
        logs = [p for p in tmp_path.iterdir() if p.suffix == ".log"]
        assert len(logs) == 1  # only the fresh segment survives
        engine.close()

    def test_empty_checkpoint_is_a_no_op(self, tmp_path):
        engine = make_engine(tmp_path)
        before = engine.stats().flushes
        engine.checkpoint()
        assert engine.stats().flushes == before
        engine.close()

    def test_failed_run_write_leaves_state_intact(
        self, tmp_path, monkeypatch
    ):
        # Regression: a flush that dies mid-run-write (ENOSPC shape)
        # must not swap the memtable or drop WAL segments — the data
        # stays visible and a later flush succeeds cleanly.
        import repro.docstore.lsm.engine as engine_mod

        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        fill(engine, 20)

        def boom(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(engine_mod, "write_sstable", boom)
        with pytest.raises(OSError):
            engine.checkpoint()
        monkeypatch.undo()
        stats = engine.stats()
        assert stats.flushes == 0
        assert stats.n_runs == 0
        assert stats.memtable_entries == 20
        assert engine.get(b"key-00000") == b"value-00000" * 4
        engine.checkpoint()
        assert engine.stats().n_runs == 1
        logs = [p for p in tmp_path.iterdir() if p.suffix == ".log"]
        assert len(logs) == 1  # old segments deleted only on success
        engine.close()
        engine2 = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        assert engine2.get(b"key-00019") == b"value-00019" * 4
        engine2.close()


class TestCompaction:
    def test_compact_now_merges_runs(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        for round_ in range(4):
            fill(engine, 25, start=round_ * 10)
            engine.checkpoint()
        before = engine.stats()
        assert before.n_runs == 4
        assert engine.compact_now() is True
        after = engine.stats()
        assert after.n_runs < before.n_runs
        assert after.compactions == before.compactions + 1
        assert dict(engine.scan()) == {
            b"key-%05d" % i: b"value-%05d" % i * 4 for i in range(55)
        }
        engine.close()

    def test_compaction_drops_tombstones_of_oldest_band(self, tmp_path):
        # Two same-size-band runs: the old generation, then a run that
        # tombstones all of it and writes a replacement generation.
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        value = b"v" * 200
        for i in range(30):
            engine.put_one(b"old-%05d" % i, value)
        engine.checkpoint()
        for i in range(30):
            engine.apply_batch([(OP_DELETE, b"old-%05d" % i, None)])
            engine.put_one(b"new-%05d" % i, value)
        engine.checkpoint()
        assert engine.stats().run_tombstone_bytes > 0
        assert engine.compact_now() is True
        # The merge included the oldest run, so the tombstones — now
        # shadowing nothing — were dropped outright.
        assert engine.stats().run_tombstone_bytes == 0
        live = dict(engine.scan())
        assert len(live) == 30
        assert all(key.startswith(b"new-") for key in live)
        engine.close()

    def test_compaction_never_resurrects_a_deleted_key(self, tmp_path):
        # Regression: the picker used to take every run of a size band,
        # adjacent or not.  Here the victim's put sits in a big run
        # between small ones and its tombstone in a later small run;
        # merging the small runs around the big one (oldest included,
        # so tombstones dropped) brought the victim back — seen as
        # migrated-away documents reappearing after shard recovery.
        engine = make_engine(
            tmp_path, memtable_max_bytes=1 << 20, compaction_min_runs=4
        )
        engine.put_one(b"small-0", b"v")
        engine.checkpoint()
        engine.put_one(b"victim", b"v")
        fill(engine, 200)
        engine.checkpoint()
        engine.apply_batch([(OP_DELETE, b"victim", None)])
        engine.checkpoint()
        for i in (1, 2):
            engine.put_one(b"small-%d" % i, b"v")
            engine.checkpoint()
        while engine.compact_now():
            pass
        assert engine.get(b"victim") is None
        assert b"victim" not in dict(engine.scan())
        engine.close()
        reopened = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        assert reopened.get(b"victim") is None
        reopened.close()

    def test_retired_runs_stay_readable_for_snapshots(self, tmp_path):
        # Regression: compaction retires inputs by unlinking only, so
        # a reader that snapshotted the run list just before the swap
        # keeps pread()ing them — closing would hand it a dead fd (or
        # a recycled one pointing at the wrong file).
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        for round_ in range(2):
            fill(engine, 20, start=round_ * 20)
            engine.checkpoint()
        with engine._manifest_lock:
            snapshot = list(engine._runs)
        assert engine.compact_now() is True
        assert not os.path.exists(snapshot[0].path)
        found, value = snapshot[0].get(b"key-00000")
        assert found and value == b"value-00000" * 4
        for run in snapshot:
            run.close()
        engine.close()

    def test_no_loss_under_concurrent_writers_and_compaction(
        self, tmp_path
    ):
        # Flushes (under the write lock) and background compactions
        # allocate file numbers and retire runs concurrently; racing
        # allocations or eager fd closes would lose or corrupt data.
        engine = make_engine(
            tmp_path,
            memtable_max_bytes=1_500,
            compaction=True,
            compaction_min_runs=2,
            sync="off",
        )
        n_threads, per_thread = 4, 150
        errors = []

        def writer(t):
            try:
                for i in range(per_thread):
                    key = b"t%d-%05d" % (t, i)
                    engine.put_one(key, key * 6)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        # Reads race flushes and run retirement the whole time.
        for _ in range(50):
            engine.get(b"t0-00000")
            dict(engine.scan())
        for thread in threads:
            thread.join()
        assert not errors
        live = dict(engine.scan())
        assert len(live) == n_threads * per_thread
        for t in range(n_threads):
            for i in range(per_thread):
                key = b"t%d-%05d" % (t, i)
                assert live[key] == key * 6
        engine.close()

    def test_compact_now_requires_background_off(self, tmp_path):
        engine = make_engine(tmp_path, compaction=True)
        with pytest.raises(DocumentStoreError):
            engine.compact_now()
        engine.close()

    def test_background_compactor_converges(self, tmp_path):
        import time

        engine = make_engine(tmp_path, compaction=True)
        fill(engine, 400)
        deadline = time.time() + 10
        while time.time() < deadline:
            if engine.stats().compactions > 0:
                break
            time.sleep(0.05)
        assert engine.stats().compactions > 0
        assert len(dict(engine.scan())) == 400
        engine.close()


class TestEventsAndLifecycle:
    def test_flush_and_compaction_bump_the_epoch(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        for start in (0, 20):
            fill(engine, 20, start)
            engine.checkpoint()
        assert engine.stats().flushes == 2
        assert engine.stats().compactions == 0
        assert engine.compact_now()
        assert engine.stats().flushes == 2
        assert engine.stats().compactions == 1
        engine.close()

    def test_double_recover_raises(self, tmp_path):
        engine = make_engine(tmp_path)
        with pytest.raises(DocumentStoreError):
            engine.recover()
        engine.close()

    def test_use_after_close_raises(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.close()
        with pytest.raises(DocumentStoreError):
            engine.put_one(b"k", b"v")

    def test_apply_batch_is_atomic_in_the_wal(self, tmp_path):
        engine = make_engine(tmp_path, memtable_max_bytes=1 << 20)
        from repro.docstore.lsm.wal import OP_PUT

        engine.apply_batch(
            [
                (OP_PUT, b"a", b"1"),
                (OP_PUT, b"b", b"2"),
                (OP_DELETE, b"a", None),
            ]
        )
        assert engine.get(b"a") is None
        assert engine.get(b"b") == b"2"
        engine.close()
