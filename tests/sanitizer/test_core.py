"""LockOrderSanitizer unit behaviour: edges, violations, wrappers."""

import threading

import pytest

from repro.sanitizer import (
    LockOrderSanitizer,
    ObservedEdge,
    SanitizedLock,
    SanitizedReadWriteLock,
)

A = "tests.fixture.A"
B = "tests.fixture.B"
POOL = "tests.fixture.pool"


class TestEdgeRecording:
    def test_nested_acquisition_records_an_edge(self):
        san = LockOrderSanitizer()
        san.note_acquired(A, 0, "lock")
        san.note_acquired(B, 0, "lock")
        san.note_released(B, 0, "lock")
        san.note_released(A, 0, "lock")
        assert san.observed_edges() == {ObservedEdge(A, B, False)}
        assert san.violations() == []

    def test_opposite_orders_close_a_cycle(self):
        san = LockOrderSanitizer()
        # Sequential, single-threaded — lockdep-style accumulation
        # catches the cycle without any real deadlock.
        san.note_acquired(A, 0, "lock")
        san.note_acquired(B, 0, "lock")
        san.note_released(B, 0, "lock")
        san.note_released(A, 0, "lock")
        san.note_acquired(B, 0, "lock")
        san.note_acquired(A, 0, "lock")
        san.note_released(A, 0, "lock")
        san.note_released(B, 0, "lock")
        kinds = [v.kind for v in san.violations()]
        assert kinds == ["lock-order-cycle"]
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            san.assert_clean()

    def test_ascending_ranks_are_an_ordered_self_edge(self):
        san = LockOrderSanitizer()
        for rank in range(3):
            san.note_acquired(POOL, rank, "read")
        for rank in range(3):
            san.note_released(POOL, rank, "read")
        assert san.observed_edges() == {ObservedEdge(POOL, POOL, True)}
        assert san.violations() == []

    def test_descending_ranks_are_an_inversion(self):
        san = LockOrderSanitizer()
        san.note_acquired(POOL, 2, "read")
        san.note_acquired(POOL, 0, "read")
        assert [v.kind for v in san.violations()] == [
            "lock-order-inversion"
        ]
        assert ObservedEdge(POOL, POOL, False) in san.observed_edges()

    def test_one_descending_observation_poisons_orderedness(self):
        san = LockOrderSanitizer()
        san.note_acquired(POOL, 0, "read")
        san.note_acquired(POOL, 1, "read")
        san.note_acquired(POOL, 0, "write")  # rank goes backwards
        edges = {(e.src, e.dst): e.ordered for e in san.observed_edges()}
        assert edges[(POOL, POOL)] is False

    def test_reentrant_acquire_is_flagged(self):
        san = LockOrderSanitizer()
        san.note_acquired(A, 0, "lock")
        san.note_acquired(A, 0, "lock")
        assert [v.kind for v in san.violations()] == ["reentrant-acquire"]

    def test_unbalanced_release_is_flagged(self):
        san = LockOrderSanitizer()
        san.note_released(A, 0, "lock")
        assert [v.kind for v in san.violations()] == ["unbalanced-release"]

    def test_held_stacks_are_per_thread(self):
        san = LockOrderSanitizer()
        san.note_acquired(A, 0, "lock")
        seen = []

        def other():
            # This thread holds nothing, so acquiring B here must not
            # create an A → B edge.
            san.note_acquired(B, 0, "lock")
            san.note_released(B, 0, "lock")
            seen.append(True)

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=10)
        san.note_released(A, 0, "lock")
        assert seen == [True]
        assert san.observed_edges() == set()


class TestLongReadHold:
    def test_long_read_hold_is_reported(self):
        san = LockOrderSanitizer(long_read_hold_s=0.0)
        san.note_acquired(A, 0, "read")
        san.note_released(A, 0, "read")
        assert [v.kind for v in san.violations()] == ["long-read-hold"]

    def test_short_read_hold_is_fine(self):
        san = LockOrderSanitizer(long_read_hold_s=60.0)
        san.note_acquired(A, 0, "read")
        san.note_released(A, 0, "read")
        assert san.violations() == []

    def test_write_holds_are_not_judged_by_the_read_threshold(self):
        san = LockOrderSanitizer(long_read_hold_s=0.0)
        san.note_acquired(A, 0, "write")
        san.note_released(A, 0, "write")
        assert san.violations() == []


class TestSanitizedWrappers:
    def test_sanitized_lock_reports_and_locks(self):
        san = LockOrderSanitizer()
        lock = SanitizedLock(san, A)
        with lock:
            assert lock.locked()
        other = SanitizedLock(san, B)
        with lock:
            with other:
                pass
        assert ObservedEdge(A, B, False) in san.observed_edges()
        assert san.violations() == []

    def test_failed_try_acquire_is_not_recorded(self):
        san = LockOrderSanitizer()
        lock = SanitizedLock(san, A)
        assert lock.acquire()
        grabbed = []

        def contender():
            grabbed.append(lock.acquire(blocking=False))

        t = threading.Thread(target=contender)
        t.start()
        t.join(timeout=10)
        lock.release()
        assert grabbed == [False]
        assert san.violations() == []

    def test_sanitized_rwlock_read_and_write(self):
        san = LockOrderSanitizer()
        lock = SanitizedReadWriteLock(san, A)
        assert lock.acquire_read()
        lock.release_read()
        assert lock.acquire_write()
        lock.release_write()
        assert san.violations() == []

    def test_rwlock_timeout_is_not_recorded(self):
        san = LockOrderSanitizer()
        lock = SanitizedReadWriteLock(san, A)
        assert lock.acquire_write()
        results = []

        def reader():
            results.append(lock.acquire_read(timeout=0.01))

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=10)
        lock.release_write()
        assert results == [False]
        # Only the write transition was ever noted.
        assert san.violations() == []
