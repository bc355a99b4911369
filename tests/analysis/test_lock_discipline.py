"""Lock-discipline (LD) rules: each fires on the bad shape, stays
quiet on the fixed one — including a reconstruction of the actual PR-1
timeout-path lock leak."""


# A faithful reconstruction of the service's per-shard read locking before the
# PR-1 review fix: deadline.remaining() can raise QueryTimeoutError
# mid-loop, and the already-acquired read locks leak because the only
# releases are on the straight-line path.
PRE_FIX_PR1_LEAK = """
class QueryService:
    def _read_lock_shards(self, collection, query, deadline):
        acquired = []
        ok = True
        for shard_id in sorted(self._targeting(collection, query)):
            lock = self._locks_by_shard[shard_id]
            if not lock.acquire_read(timeout=deadline.remaining()):
                ok = False
                break
            acquired.append(lock)
        if ok:
            return acquired
        for lock in acquired:
            lock.release_read()
        raise QueryTimeoutError("timed out waiting for shard read locks")
"""

# The shipped code after the review fix: every acquisition sits inside
# a try whose BaseException handler releases what was acquired.
POST_FIX_PR1 = """
class QueryService:
    def _read_lock_shards(self, collection, query, deadline):
        acquired = []
        ok = True
        try:
            for shard_id in sorted(self._targeting(collection, query)):
                lock = self._locks_by_shard[shard_id]
                if not lock.acquire_read(timeout=deadline.remaining()):
                    ok = False
                    break
                acquired.append(lock)
        except BaseException:
            for lock in acquired:
                lock.release_read()
            raise
        if ok:
            return acquired
        for lock in acquired:
            lock.release_read()
        raise QueryTimeoutError("timed out waiting for shard read locks")
"""


class TestLD001ReleaseOnAllPaths:
    def test_pre_fix_pr1_leak_is_flagged(self, check, rule_ids):
        findings = check(PRE_FIX_PR1_LEAK, "lock-discipline")
        assert "LD001" in rule_ids(findings)

    def test_post_fix_pr1_code_is_clean(self, check):
        assert check(POST_FIX_PR1, "lock-discipline") == []

    def test_bare_acquire_without_finally(self, check, rule_ids):
        source = """
        def serve(lock):
            lock.acquire()
            do_work()
            lock.release()
        """
        assert rule_ids(check(source, "lock-discipline")) == ["LD001"]

    def test_acquire_released_in_finally_is_clean(self, check):
        source = """
        def serve(lock):
            lock.acquire()
            try:
                do_work()
            finally:
                lock.release()
        """
        assert check(source, "lock-discipline") == []

    def test_with_statement_is_clean(self, check):
        source = """
        def serve(lock):
            with lock:
                do_work()
        """
        assert check(source, "lock-discipline") == []

    def test_with_acquire_helper_is_clean(self, check):
        source = """
        def serve(rw):
            with rw.read_locked():
                do_work()
        """
        assert check(source, "lock-discipline") == []

    def test_release_in_nested_closure_finally_counts(self, check):
        # The open-loop load generator's shape: the semaphore token is
        # released by the closure handed to the worker pool.
        source = """
        def run(sem, pool, work):
            def handoff(item):
                try:
                    work(item)
                finally:
                    sem.release()

            for item in sorted(work.items):
                if sem.acquire(blocking=False):
                    pool.submit(handoff, item)
        """
        assert check(source, "lock-discipline") == []

    def test_wrapper_delegating_acquire_is_clean(self, check):
        # Regression: an instrumented-lock wrapper whose ``acquire``
        # forwards to the inner lock holds it *for its caller* — the
        # caller's unwind path is the one to judge, not the wrapper's.
        source = """
        import threading

        class SanitizedLock:
            def __init__(self):
                self._inner = threading.Lock()

            def acquire(self, blocking=True):
                return self._inner.acquire(blocking)

            def release(self):
                self._inner.release()
        """
        assert check(source, "lock-discipline") == []

    def test_enter_exit_pair_is_clean(self, check):
        # ``__enter__`` acquires, ``__exit__`` releases: the pairing
        # spans two methods by design.
        source = """
        import threading

        class Guard:
            def __init__(self):
                self._inner = threading.Lock()

            def __enter__(self):
                self._inner.acquire()
                return self

            def __exit__(self, *exc_info):
                self._inner.release()
        """
        assert check(source, "lock-discipline") == []

    def test_differently_named_method_is_still_flagged(
        self, check, rule_ids
    ):
        # The exemption is strictly name-matched: a ``grab`` that
        # acquires and then does risky work is not a wrapper.
        source = """
        import threading

        class Guard:
            def __init__(self):
                self._inner = threading.Lock()

            def grab(self):
                self._inner.acquire()
                work()
                self._inner.release()
        """
        assert rule_ids(check(source, "lock-discipline")) == ["LD001"]


class TestLD002SortedAcquisitionOrder:
    def test_unsorted_multi_lock_loop_is_flagged(self, check, rule_ids):
        source = """
        def lock_all(locks, shard_ids):
            for shard_id in shard_ids:
                locks[shard_id].acquire_write()
            try:
                pass
            finally:
                for shard_id in shard_ids:
                    locks[shard_id].release_write()
        """
        assert "LD002" in rule_ids(check(source, "lock-discipline"))

    def test_sorted_multi_lock_loop_is_clean(self, check):
        source = """
        def lock_all(locks, shard_ids):
            for shard_id in sorted(shard_ids):
                locks[shard_id].acquire_write()
            try:
                pass
            finally:
                for shard_id in shard_ids:
                    locks[shard_id].release_write()
        """
        assert check(source, "lock-discipline") == []

    def test_retry_loop_around_sorted_inner_loop_is_clean(self, check):
        # The shipped targeting-retry shape: the outer attempt loop
        # must not be blamed for the (sorted) inner acquisition loop.
        source = """
        def retry(locks, ids):
            for _attempt in range(16):
                try:
                    for shard_id in sorted(ids):
                        locks[shard_id].acquire_read()
                finally:
                    for shard_id in sorted(ids):
                        locks[shard_id].release_read()
        """
        assert check(source, "lock-discipline") == []

    def test_release_only_loop_is_not_flagged(self, check):
        source = """
        def unlock_all(acquired):
            for lock in acquired:
                lock.release_read()
        """
        assert check(source, "lock-discipline") == []


class TestLD003GuardedSharedMutation:
    def test_unguarded_mutation_in_lock_owning_class(self, check, rule_ids):
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                self._entries[key] = value
        """
        assert rule_ids(check(source, "lock-discipline")) == ["LD003"]

    def test_guarded_mutation_is_clean(self, check):
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value
        """
        assert check(source, "lock-discipline") == []

    def test_locked_suffix_convention_is_trusted(self, check):
        # Methods named ``*_locked`` declare that the caller holds the
        # class lock (the worker-host/worker-client idiom); their
        # mutations are judged as guarded.
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._put_locked(key, value)

            def _put_locked(self, key, value):
                self._entries[key] = value
        """
        assert check(source, "lock-discipline") == []

    def test_locked_suffix_does_not_cover_closures(self, check, rule_ids):
        # A closure defined inside a ``*_locked`` method may run later
        # on another thread; it is still judged on its own terms.
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def _schedule_locked(self, key, value):
                def later():
                    self._entries[key] = value
                return later
        """
        assert rule_ids(check(source, "lock-discipline")) == ["LD003"]

    def test_class_without_locks_is_exempt(self, check):
        source = """
        class PlainBag:
            def put(self, key, value):
                self._entries[key] = value
        """
        assert check(source, "lock-discipline") == []

    def test_mutator_method_call_outside_lock(self, check, rule_ids):
        source = """
        import threading

        class Tally:
            def __init__(self):
                self.lock = threading.Lock()
                self.values = []

            def add(self, v):
                self.values.append(v)
        """
        assert rule_ids(check(source, "lock-discipline")) == ["LD003"]

    def test_class_level_lock_guards_class_attr(self, check):
        # The ObjectId counter shape: class-level lock, class-attr
        # mutation under `with ClassName._lock`.
        source = """
        import threading

        class ObjectId:
            _counter_lock = threading.Lock()
            _counter = 0

            def bump(self):
                with ObjectId._counter_lock:
                    ObjectId._counter = (ObjectId._counter + 1) & 0xFF
        """
        assert check(source, "lock-discipline") == []
