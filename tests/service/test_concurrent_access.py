"""Concurrency stress: mixed reads/writes vs a serial oracle.

N threads hammer one QueryService with interleaved range reads,
counter increments, inserts, and deletes.  Afterwards the cluster must
match what a serial execution of the same write set would produce —
every insert present exactly once, every increment applied (no lost
updates), catalog counters consistent — and every read observed along
the way must have been internally consistent (only matching documents,
no duplicates).
"""

import random
import threading
import time

import pytest

from repro.docstore.collection import Collection
from repro.errors import QueryTimeoutError
from repro.service import QueryService, ServiceConfig

N_THREADS = 8
OPS_PER_THREAD = 25
BASE_DOCS = 400


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


@pytest.fixture
def stress_cluster(cluster_factory):
    return cluster_factory(
        n_shards=4, n_docs=BASE_DOCS, chunk_max_bytes=2 * 1024
    )


class TestConcurrentMixedWorkload:
    def test_no_lost_updates_and_reads_consistent(self, stress_cluster):
        cluster = stress_cluster
        config = ServiceConfig(
            max_workers=4,
            max_concurrent_queries=N_THREADS,
            max_queue_depth=N_THREADS * 4,
        )
        increments_done = [0] * N_THREADS
        inserts_done = [[] for _ in range(N_THREADS)]
        deletes_done = [[] for _ in range(N_THREADS)]
        read_errors = []
        failures = []

        def worker(tid: int, service: QueryService) -> None:
            rng = random.Random(1000 + tid)
            try:
                for op in range(OPS_PER_THREAD):
                    roll = rng.random()
                    if roll < 0.5:
                        lo = rng.randrange(0, 9000)
                        result = service.find(
                            "t", {"k": {"$gte": lo, "$lt": lo + 1500}}
                        )
                        ids = [d["_id"] for d in result]
                        if len(ids) != len(set(ids)):
                            read_errors.append("duplicate ids in read")
                        for d in result:
                            if not (lo <= d["k"] < lo + 1500):
                                read_errors.append(
                                    "non-matching doc %r" % d["_id"]
                                )
                    elif roll < 0.75:
                        # Increment the shared counter of one group;
                        # update_many returns how many docs it touched.
                        group = rng.randrange(0, 10)
                        touched = service.update_many(
                            "t",
                            {"group": group},
                            {"$inc": {"counter": 1}},
                        )
                        increments_done[tid] += touched
                    elif roll < 0.9:
                        new_id = 100_000 + tid * 1000 + op
                        service.insert_many(
                            "t",
                            [
                                {
                                    "_id": new_id,
                                    "k": rng.randrange(0, 10_000),
                                    "group": 10 + tid,  # outside $inc range
                                    "counter": 0,
                                    "pad": "y" * 64,
                                }
                            ],
                        )
                        inserts_done[tid].append(new_id)
                    else:
                        if inserts_done[tid]:
                            victim = inserts_done[tid].pop()
                            n = service.delete_many("t", {"_id": victim})
                            if n != 1:
                                read_errors.append(
                                    "delete of %r removed %d" % (victim, n)
                                )
                            deletes_done[tid].append(victim)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((tid, exc))

        with QueryService(cluster, config) as service:
            threads = [
                threading.Thread(target=worker, args=(tid, service))
                for tid in range(N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not failures, failures
        assert not read_errors, read_errors[:5]

        # --- serial oracle ---------------------------------------------------
        surviving_inserts = {i for lst in inserts_done for i in lst}
        n_docs = cluster.count_documents("t", {})
        assert n_docs == BASE_DOCS + len(surviving_inserts)

        # Every inserted-and-not-deleted document is present exactly once.
        for new_id in sorted(surviving_inserts):
            assert cluster.count_documents("t", {"_id": new_id}) == 1
        for lst in deletes_done:
            for gone in lst:
                assert cluster.count_documents("t", {"_id": gone}) == 0

        # No lost updates: the counters over the base documents sum to
        # exactly the number of (document, increment) applications the
        # writers performed.
        total = sum(
            d["counter"]
            for d in cluster.find("t", {"group": {"$lt": 10}}).documents
        )
        assert total == sum(increments_done)

        # Catalog bookkeeping survived the interleaving.
        cluster.validate("t")

    def test_concurrent_readers_share_shards(self, stress_cluster):
        """Pure read concurrency: many threads, identical results."""
        cluster = stress_cluster
        expected = sorted(
            d["_id"]
            for d in cluster.find("t", {"k": {"$gte": 0, "$lt": 5000}})
        )
        mismatches = []

        def reader(service: QueryService) -> None:
            for _ in range(10):
                got = sorted(
                    d["_id"]
                    for d in service.find(
                        "t", {"k": {"$gte": 0, "$lt": 5000}}
                    )
                )
                if got != expected:
                    mismatches.append(got)

        with QueryService(cluster) as service:
            threads = [
                threading.Thread(target=reader, args=(service,))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not mismatches


def _assert_lock_not_leaked(service):
    """The service lock is write-acquirable: no read leaked its hold."""
    assert service._lock.acquire_write(timeout=2.0), "leaked read hold"
    service._lock.release_write()


class TestTimeoutLockSafety:
    def test_timed_out_query_releases_read_locks(self, stress_cluster):
        """A query timing out while it waits for the lock must leak none.

        A writer holds the service lock, so a broadcast read queues
        behind it and times out.  Afterwards the lock must be
        write-acquirable and a real write must complete — a leaked read
        hold would deadlock the service permanently.
        """
        with QueryService(
            stress_cluster, ServiceConfig(max_workers=4)
        ) as service:
            lock = service._lock
            parked = threading.Event()
            unpark = threading.Event()

            def writer():
                lock.acquire_write()
                parked.set()
                unpark.wait(timeout=30.0)
                lock.release_write()

            thread = threading.Thread(target=writer)
            thread.start()
            assert parked.wait(timeout=10.0)
            try:
                with pytest.raises(QueryTimeoutError):
                    service.find("t", {}, timeout_ms=100)
            finally:
                unpark.set()
                thread.join(timeout=10.0)
            _assert_lock_not_leaked(service)
            inserted = service.insert_many(
                "t",
                [
                    {
                        "_id": 10**6,
                        "k": 1,
                        "group": 0,
                        "counter": 0,
                        "pad": "x",
                    }
                ],
            )
            assert inserted == 1


#: Reads take turns on the thread backend, whatever the environment says.
THREAD = ServiceConfig(executor="thread")


class TestReadTurns:
    """The thread backend's reads hold the service lock one at a time,
    in arrival order."""

    def test_expired_waiter_times_out_and_the_next_one_runs(
        self, stress_cluster
    ):
        with QueryService(stress_cluster, THREAD) as service:
            lock = service._lock
            outcomes = {}

            def read(name, timeout_ms):
                try:
                    result = service.find("t", {}, timeout_ms=timeout_ms)
                    outcomes[name] = result
                except QueryTimeoutError as exc:
                    outcomes[name] = exc

            # Hold the lock as a long read would; queue two reads
            # behind it, the first with a short deadline.
            assert lock.acquire_write()
            try:
                early = threading.Thread(target=read, args=("early", 100))
                early.start()
                _wait_for(lambda: len(lock._queue) == 1)
                late = threading.Thread(target=read, args=("late", None))
                late.start()
                _wait_for(lambda: len(lock._queue) == 2)
                early.join(timeout=10.0)
                assert isinstance(outcomes["early"], QueryTimeoutError)
                assert "late" not in outcomes  # still queued
                time.sleep(0.1)
            finally:
                lock.release_write()
            late.join(timeout=10.0)
            assert len(outcomes["late"]) == BASE_DOCS
            # The wait for the lock is queue wait.
            assert outcomes["late"].queue_wait_ms >= 100.0
            assert service.metrics.timed_out == 1
            _assert_lock_not_leaked(service)

    def test_timeout_mid_fan_out_releases_the_turn(
        self, stress_cluster, monkeypatch
    ):
        original = Collection.find_rids
        shards_run = []

        def slow_match(self, *args, **kwargs):
            shards_run.append(self)
            time.sleep(0.06)
            return original(self, *args, **kwargs)

        with QueryService(stress_cluster, THREAD) as service:
            monkeypatch.setattr(Collection, "find_rids", slow_match)
            with pytest.raises(QueryTimeoutError):
                service.find("t", {}, timeout_ms=100)
            monkeypatch.setattr(Collection, "find_rids", original)
            # The deadline expired between two shards of the fan-out.
            assert 0 < len(shards_run) < len(stress_cluster.shards)
            _assert_lock_not_leaked(service)
            assert len(service.find("t", {})) == BASE_DOCS

    def test_a_read_queued_behind_a_write_goes_before_the_next_write(
        self, stress_cluster
    ):
        # Burst ingest against one reader: the writer's thread releases
        # the lock and writes again at once.  The read that queued
        # during the first write must be served first, so it does not
        # see the second write's document.
        with QueryService(stress_cluster, THREAD) as service:
            entered = threading.Event()
            proceed = threading.Event()
            outcomes = {}

            def hold():
                entered.set()
                assert proceed.wait(timeout=10.0)

            def writes():
                service._run_exclusive(hold)
                service.insert_one(
                    "t", {"_id": 10**6, "k": 1, "group": 0, "counter": 0}
                )

            def read():
                outcomes["read"] = service.find("t", {})

            writer = threading.Thread(target=writes)
            writer.start()
            assert entered.wait(timeout=10.0)
            reader = threading.Thread(target=read)
            reader.start()
            _wait_for(lambda: len(service._lock._queue) == 1)
            proceed.set()
            writer.join(timeout=10.0)
            reader.join(timeout=10.0)
            assert len(outcomes["read"]) == BASE_DOCS
            assert len(service.find("t", {})) == BASE_DOCS + 1
