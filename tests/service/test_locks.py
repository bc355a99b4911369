"""Reader-writer lock semantics: shared, exclusive, in arrival order."""

import sys
import threading
import time

from repro.service.locks import ReadWriteLock


class TestSharedMode:
    def test_many_concurrent_readers(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(4)

        def reader():
            assert lock.acquire_read(timeout=5)
            try:
                barrier.wait(timeout=5)  # all 4 inside simultaneously
                inside.append(1)
            finally:
                lock.release_read()

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
        # Arrival order: a new reader cannot overtake the queued writer.
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


class TestFifoOrder:
    def _queue_waiter(
        self, lock, name, granted, timeout=None, results=None, shared=False
    ):
        """Start a thread that queues for the lock, records the grant,
        and releases; returns once it is in the queue."""
        queued = len(lock._queue)
        acquire = lock.acquire_read if shared else lock.acquire_write
        release = lock.release_read if shared else lock.release_write

        def waiter():
            ok = acquire(timeout=timeout)
            if results is not None:
                results[name] = ok
            if ok:
                granted.append(name)
                release()

        thread = threading.Thread(target=waiter)
        thread.start()
        _wait_until(lambda: len(lock._queue) > queued)
        return thread

    def test_grants_follow_arrival_order(self):
        lock = ReadWriteLock()
        granted = []
        assert lock.acquire_write()
        threads = [
            self._queue_waiter(lock, name, granted) for name in "abcde"
        ]
        lock.release_write()
        for thread in threads:
            thread.join(timeout=5)
        assert granted == list("abcde")

    def test_a_releasing_holder_queues_behind_the_waiter(self):
        # The case a plain Lock gets wrong: release, then ask again at
        # once — the thread already waiting must go first.
        lock = ReadWriteLock()
        granted = []
        assert lock.acquire_write()
        thread = self._queue_waiter(lock, "waiter", granted)
        lock.release_write()
        assert lock.acquire_write(timeout=5)
        granted.append("releaser")
        lock.release_write()
        thread.join(timeout=5)
        assert granted == ["waiter", "releaser"]

    def test_a_rewriting_writer_queues_behind_the_reader(self):
        # Burst ingest against one reader: a writer holds the lock, a
        # reader queues, and the writer releases and asks again at
        # once.  A writer-preferring lock lets the writer back in
        # before the reader it woke can run.
        lock = ReadWriteLock()
        granted = []
        assert lock.acquire_write()
        thread = self._queue_waiter(lock, "reader", granted, shared=True)
        lock.release_write()
        assert lock.acquire_write(timeout=5)
        granted.append("writer")
        lock.release_write()
        thread.join(timeout=5)
        assert granted == ["reader", "writer"]

    def test_shared_heads_are_granted_together(self):
        # Three readers queued behind a writer enter together; the
        # writer queued after them waits for all three to leave.
        lock = ReadWriteLock()
        assert lock.acquire_write()
        inside = threading.Barrier(3)
        order = []

        def reader(name):
            assert lock.acquire_read(timeout=5)
            try:
                inside.wait(timeout=5)  # all three hold it at once
                order.append(name)
            finally:
                lock.release_read()

        readers = []
        for name in "abc":
            readers.append(threading.Thread(target=reader, args=(name,)))
            readers[-1].start()
            _wait_until(lambda n=len(readers): len(lock._queue) == n)
        writer = self._queue_waiter(lock, "writer", order)
        lock.release_write()
        for thread in readers + [writer]:
            thread.join(timeout=5)
        assert sorted(order[:3]) == list("abc")
        assert order[3:] == ["writer"]
        assert not lock._queue and not lock._readers and not lock._writer

    def test_an_expired_waiter_leaves_and_the_next_one_runs(self):
        lock = ReadWriteLock()
        granted, results = [], {}
        assert lock.acquire_write()
        early = self._queue_waiter(
            lock, "early", granted, timeout=0.05, results=results
        )
        late = self._queue_waiter(lock, "late", granted, results=results)
        early.join(timeout=5)
        assert results == {"early": False}
        lock.release_write()
        late.join(timeout=5)
        assert granted == ["late"]
        assert not lock._queue and not lock._writer

    def test_stress_turns_exclude_each_other(self):
        # More threads than cores and a tiny switch interval: a read-
        # modify-write under the exclusive lock loses no update only if
        # exclusive holds never overlap — with each other or with the
        # shared holds that check the counter stays still.
        lock = ReadWriteLock()
        counter = [0]
        torn = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def writer():
                for _ in range(200):
                    assert lock.acquire_write(timeout=10)
                    try:
                        value = counter[0]
                        time.sleep(0)
                        counter[0] = value + 1
                    finally:
                        lock.release_write()

            def reader():
                for _ in range(200):
                    assert lock.acquire_read(timeout=10)
                    try:
                        value = counter[0]
                        time.sleep(0)
                        if counter[0] != value:
                            torn.append(value)
                    finally:
                        lock.release_read()

            threads = [threading.Thread(target=writer) for _ in range(8)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert counter[0] == 8 * 200
        assert not torn
        assert not lock._queue and not lock._readers and not lock._writer
