"""Reader-writer lock and FIFO turn semantics."""

import sys
import threading
import time

from repro.service.locks import FifoTurn, ReadWriteLock


class TestSharedMode:
    def test_many_concurrent_readers(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(4)

        def reader():
            with lock.read_locked():
                barrier.wait(timeout=5)  # all 4 inside simultaneously
                inside.append(1)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(inside) == 4

    def test_read_timeout_while_written(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        try:
            assert lock.acquire_read(timeout=0.05) is False
        finally:
            lock.release_write()
        assert lock.acquire_read(timeout=0.05) is True
        lock.release_read()


class TestExclusiveMode:
    def test_writer_excludes_writer(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        try:
            assert lock.acquire_write(timeout=0.05) is False
        finally:
            lock.release_write()

    def test_writer_waits_for_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = []

        def writer():
            got_write.append(lock.acquire_write(timeout=2))
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert not got_write  # still blocked on the active reader
        lock.release_read()
        t.join()
        assert got_write == [True]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()

        def writer():
            writer_started.set()
            lock.acquire_write()
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        writer_started.wait(timeout=2)
        time.sleep(0.05)  # writer is now parked, waiting
        # Writer preference: a new reader cannot sneak in.
        assert lock.acquire_read(timeout=0.05) is False
        lock.release_read()
        t.join()
        assert lock.acquire_read(timeout=1) is True
        lock.release_read()

    def test_writer_timeout_wakes_parked_readers(self):
        """A timed-out writer must notify readers it was parking.

        With one read held, a writer waits with a short timeout while a
        second reader parks behind the waiting writer.  When the writer
        gives up, the parked reader must wake promptly — not sit until
        its own (much longer) timeout expires for lack of a notify.
        """
        lock = ReadWriteLock()
        lock.acquire_read()  # keeps the writer from acquiring
        writer_parked = threading.Event()
        reader_elapsed = []

        def writer():
            writer_parked.set()
            assert lock.acquire_write(timeout=0.2) is False

        def reader():
            writer_parked.wait(timeout=2)
            time.sleep(0.05)  # let the writer park first
            t0 = time.perf_counter()
            assert lock.acquire_read(timeout=5) is True
            reader_elapsed.append(time.perf_counter() - t0)
            lock.release_read()

        wt = threading.Thread(target=writer)
        rt = threading.Thread(target=reader)
        wt.start()
        rt.start()
        wt.join(timeout=5)
        rt.join(timeout=5)
        lock.release_read()
        assert reader_elapsed and reader_elapsed[0] < 1.5


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestFifoTurn:
    def _queue_waiter(self, turn, name, granted, timeout=None, results=None):
        """Start a thread that queues for the turn, records the grant,
        and hands the turn on; returns once it is in the queue."""
        queued = len(turn._queue)

        def waiter():
            ok = turn.acquire(timeout=timeout)
            if results is not None:
                results[name] = ok
            if ok:
                granted.append(name)
                turn.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        _wait_until(lambda: len(turn._queue) > queued)
        return thread

    def test_grants_follow_arrival_order(self):
        turn = FifoTurn()
        granted = []
        assert turn.acquire()
        threads = [
            self._queue_waiter(turn, name, granted) for name in "abcde"
        ]
        turn.release()
        for thread in threads:
            thread.join(timeout=5)
        assert granted == list("abcde")

    def test_a_releasing_holder_queues_behind_the_waiter(self):
        # The case a plain Lock gets wrong: release, then ask again at
        # once — the thread already waiting must go first.
        turn = FifoTurn()
        granted = []
        assert turn.acquire()
        thread = self._queue_waiter(turn, "waiter", granted)
        turn.release()
        assert turn.acquire(timeout=5)
        granted.append("releaser")
        turn.release()
        thread.join(timeout=5)
        assert granted == ["waiter", "releaser"]

    def test_an_expired_waiter_leaves_and_the_next_one_runs(self):
        turn = FifoTurn()
        granted, results = [], {}
        assert turn.acquire()
        early = self._queue_waiter(
            turn, "early", granted, timeout=0.05, results=results
        )
        late = self._queue_waiter(turn, "late", granted, results=results)
        early.join(timeout=5)
        assert results == {"early": False}
        turn.release()
        late.join(timeout=5)
        assert granted == ["late"]
        assert not turn._queue and not turn._held

    def test_stress_turns_exclude_each_other(self):
        # More threads than cores and a tiny switch interval: a read-
        # modify-write inside the turn loses no update only if turns
        # never overlap.
        turn = FifoTurn()
        counter = [0]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker():
                for _ in range(200):
                    assert turn.acquire(timeout=10)
                    try:
                        value = counter[0]
                        time.sleep(0)
                        counter[0] = value + 1
                    finally:
                        turn.release()

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert counter[0] == 8 * 200
        assert not turn._queue and not turn._held
