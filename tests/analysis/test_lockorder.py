"""LK rules: the interprocedural checks, including the reconstruction
of a cross-function lock-order inversion that LD002 cannot see."""

from pathlib import Path

from repro.analysis.checker import run_analysis
from repro.analysis.lockgraph import analyze_locks

REPO_ROOT = Path(__file__).resolve().parents[2]
RECONSTRUCTION = Path(__file__).with_name("lockorder_reconstruction.py")
EXECUTOR_RECONSTRUCTION = Path(__file__).with_name(
    "executor_lockorder_reconstruction.py"
)


class TestLK001CycleReconstruction:
    """The acceptance scenario: LK001 catches what LD002 misses."""

    def test_intraprocedural_rules_are_blind_to_it(self):
        findings = run_analysis([str(RECONSTRUCTION)], root=REPO_ROOT)
        assert [f for f in findings if f.rule_id == "LD002"] == []
        assert [f for f in findings if f.rule_id == "LD001"] == []

    def test_lk001_flags_the_cross_function_cycle(self):
        findings = run_analysis(
            [str(RECONSTRUCTION)], root=REPO_ROOT, select=["LK001"]
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "audit_lock" in message and "ledger_lock" in message
        assert "cycle" in message

    def test_consistent_order_is_clean(self, check_project):
        source = """
        import threading

        class Ledger:
            def __init__(self):
                self.ledger_lock = threading.Lock()
                self.audit_lock = threading.Lock()

            def debit(self):
                with self.ledger_lock:
                    self._append_audit()

            def _append_audit(self):
                with self.audit_lock:
                    pass

            def audit_scan(self):
                with self.ledger_lock:
                    with self.audit_lock:
                        pass
        """
        assert check_project(source) == []


class TestLK001ExecutorTopologyReconstruction:
    """The process-backend acceptance scenario: a shard-lock/client-lock
    inversion in the new parent-side topology is caught statically."""

    def test_intraprocedural_rules_are_blind_to_it(self):
        findings = run_analysis(
            [str(EXECUTOR_RECONSTRUCTION)], root=REPO_ROOT
        )
        assert [f for f in findings if f.rule_id == "LD001"] == []
        assert [f for f in findings if f.rule_id == "LD002"] == []
        assert [f for f in findings if f.rule_id == "LD003"] == []

    def test_lk001_flags_the_inverted_resync(self):
        findings = run_analysis(
            [str(EXECUTOR_RECONSTRUCTION)], root=REPO_ROOT, select=["LK001"]
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "shard_lock" in message and "client_lock" in message
        assert "cycle" in message


class TestLK001Collections:
    def test_sorted_collection_loop_is_ordered(self, check_project):
        source = """
        class Service:
            def __init__(self):
                self._locks = {i: ReadWriteLock() for i in range(4)}

            def read_all(self):
                held = []
                for key in sorted(self._locks):
                    self._locks[key].acquire_read()
                    held.append(self._locks[key])
                for lock in held:
                    lock.release_read()
        """
        assert check_project(source) == []

    def test_unsorted_collection_loop_is_a_cycle(self, check_project):
        source = """
        class Service:
            def __init__(self):
                self._locks = {i: ReadWriteLock() for i in range(4)}

            def read_all(self):
                held = []
                for key in self._locks:
                    self._locks[key].acquire_read()
                    held.append(self._locks[key])
                for lock in held:
                    lock.release_read()
        """
        findings = check_project(source)
        assert [f.rule_id for f in findings] == ["LK001"]


class TestLK002BlockingUnderLocks:
    def test_future_result_under_lock(self, check_project):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self, pool):
                with self._lock:
                    fut = pool.submit(job)
                    return fut.result()
        """
        findings = check_project(source)
        assert [f.rule_id for f in findings] == ["LK002"]
        assert "Future.result" in findings[0].message

    def test_bounded_result_is_clean(self, check_project):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self, pool):
                with self._lock:
                    fut = pool.submit(job)
                    return fut.result(timeout=1.0)
        """
        assert check_project(source) == []

    def test_sleep_under_lock_reached_through_a_call(self, check_project):
        # The blocking call is one frame below the acquisition — the
        # intraprocedural CH rules cannot connect the two.
        source = """
        import threading
        import time

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self):
                with self._lock:
                    self._backoff()

            def _backoff(self):
                time.sleep(0.1)
        """
        findings = check_project(source)
        assert [f.rule_id for f in findings] == ["LK002"]

    def test_waiting_on_the_held_condition_is_clean(self, check_project):
        # Condition.wait releases the condition's own lock while
        # parked; only *other* held locks make it dangerous.
        source = """
        import threading

        class Gate:
            def __init__(self):
                self._cond = threading.Condition()

            def wait_open(self):
                with self._cond:
                    self._cond.wait_for(lambda: True)
        """
        assert check_project(source) == []

    def test_waiting_with_an_extra_lock_held_is_flagged(
        self, check_project
    ):
        source = """
        import threading

        class Gate:
            def __init__(self):
                self._cond = threading.Condition()
                self._state = threading.Lock()

            def wait_open(self):
                with self._state:
                    with self._cond:
                        self._cond.wait_for(lambda: True)
        """
        findings = check_project(source)
        assert [f.rule_id for f in findings] == ["LK002"]


class TestLK003EscapingAcquisitions:
    def test_unprotected_escaping_call_is_flagged(self, check_project):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def _grab(self):
                self._lock.acquire()

            def use(self):
                self._grab()
                work()
                self._lock.release()
        """
        findings = check_project(source)
        assert "LK003" in [f.rule_id for f in findings]
        lk003 = [f for f in findings if f.rule_id == "LK003"][0]
        assert lk003.symbol == "Service.use"

    def test_acquire_then_try_finally_is_clean(self, check_project):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def _grab(self):
                self._lock.acquire()

            def use(self):
                self._grab()
                try:
                    work()
                finally:
                    self._lock.release()
        """
        assert [
            f.rule_id for f in check_project(source)
        ] == []

    def test_delegating_caller_passes_the_obligation_up(
        self, check_project
    ):
        # ``outer`` deliberately returns holding the lock too (its own
        # callers carry the release), so its bare call to _grab is not
        # a leak — but the top-level unprotected call still is.
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def _grab(self):
                self._lock.acquire()

            def outer(self):
                self._grab()

            def top(self):
                self.outer()
                work()
                self._lock.release()
        """
        findings = check_project(source)
        assert [
            (f.rule_id, f.symbol) for f in findings
        ] == [("LK003", "Service.top")]


class TestSpawnBoundary:
    def test_held_locks_do_not_cross_submit(self, parse_modules):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()

            def run(self, pool):
                with self._lock:
                    pool.submit(self._task)

            def _task(self):
                with self._other:
                    pass
        """
        analysis = analyze_locks(parse_modules(source))
        assert not analysis.graph.has_edge(
            "repro.service.fixture.Service._lock",
            "repro.service.fixture.Service._other",
        )

    def test_held_locks_do_cross_closure_args(self, parse_modules):
        source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()

            def apply(self, fn):
                return fn()

            def run(self):
                with self._lock:
                    self.apply(self._task)

            def _task(self):
                with self._other:
                    pass
        """
        analysis = analyze_locks(parse_modules(source))
        assert analysis.graph.has_edge(
            "repro.service.fixture.Service._lock",
            "repro.service.fixture.Service._other",
        )


class TestShippedTree:
    """The analysis against the real src tree — the acceptance bar."""

    def test_src_lock_order_graph_is_acyclic(self, shipped_findings):
        assert shipped_findings("LK001") == []

    def test_src_has_no_unprotected_escapes(self, shipped_findings):
        assert shipped_findings("LK003") == []

    def test_src_blocking_calls_are_exactly_the_baselined_ones(
        self, shipped_findings
    ):
        findings = shipped_findings("LK002")
        assert sorted(f.symbol for f in findings) == []


class TestReentrantSelfEdges:
    """Re-acquiring a held RLock is its contract, not a deadlock."""

    SOURCE_TEMPLATE = """
        import threading

        class Tracer:
            def __init__(self):
                self._lock = threading.%s()

            def record(self):
                with self._lock:
                    self._check()

            def _check(self):
                with self._lock:
                    pass
    """

    def test_rlock_reacquired_while_held_is_not_a_cycle(
        self, check_project
    ):
        assert check_project(self.SOURCE_TEMPLATE % "RLock") == []

    def test_plain_lock_reacquired_while_held_is_a_cycle(
        self, check_project
    ):
        findings = check_project(self.SOURCE_TEMPLATE % "Lock")
        assert [f.rule_id for f in findings] == ["LK001"]
        assert "Tracer._lock" in findings[0].message

    def test_the_self_edge_is_still_in_the_graph(self, parse_modules):
        # The exemption is in cycle detection only: the edge itself
        # stays recorded, so runtime cross-validation can still match
        # an observed re-entrant acquisition against it.
        analysis = analyze_locks(
            parse_modules(self.SOURCE_TEMPLATE % "RLock")
        )
        key = "repro.service.fixture.Tracer._lock"
        assert analysis.graph.has_edge(key, key)
        assert analysis.graph.cycles() == []
