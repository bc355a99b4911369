"""Static-vs-runtime cross-validation, including the acceptance
scenario: the runtime sanitizer reproduces the reconstructed
cross-function cycle that LK001 flags statically."""

import random
from pathlib import Path

import pytest

from repro.analysis.lockgraph import build_lock_order_graph
from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.sanitizer import (
    EXECUTOR_CLIENT_LOCK_KEY,
    INSTRUMENTED_KEYS,
    SERVICE_LOCK_KEY,
    LockOrderSanitizer,
    SanitizedLock,
    cross_validate,
    instrument_query_service,
)
from repro.service.service import QueryService, ServiceConfig
from tests.analysis.executor_lockorder_reconstruction import FanoutFrontend
from tests.analysis.lockorder_reconstruction import TransferLedger

REPO_ROOT = Path(__file__).resolve().parents[2]
RECONSTRUCTION = (
    REPO_ROOT / "tests" / "analysis" / "lockorder_reconstruction.py"
)
EXECUTOR_RECONSTRUCTION = (
    REPO_ROOT / "tests" / "analysis" / "executor_lockorder_reconstruction.py"
)

LEDGER_KEY = (
    "tests.analysis.lockorder_reconstruction.TransferLedger.ledger_lock"
)
AUDIT_KEY = (
    "tests.analysis.lockorder_reconstruction.TransferLedger.audit_lock"
)
FANOUT_SHARD_KEY = (
    "tests.analysis.executor_lockorder_reconstruction"
    ".FanoutFrontend.shard_lock"
)
FANOUT_CLIENT_KEY = (
    "tests.analysis.executor_lockorder_reconstruction"
    ".FanoutFrontend.client_lock"
)


def instrumented_ledger(sanitizer):
    """A TransferLedger whose locks report to ``sanitizer``, keyed by
    the same registry symbols the static analysis derives."""
    ledger = TransferLedger()
    ledger.ledger_lock = SanitizedLock(sanitizer, LEDGER_KEY)
    ledger.audit_lock = SanitizedLock(sanitizer, AUDIT_KEY)
    return ledger


def reconstruction_graph():
    return build_lock_order_graph([str(RECONSTRUCTION)], REPO_ROOT)


@pytest.fixture(scope="module")
def shipped_graph():
    """The shipped tree's static lock-order graph, built once."""
    return build_lock_order_graph(["src"], REPO_ROOT)


class TestReconstructionRuntime:
    """The runtime half of the acceptance criterion."""

    def test_sanitizer_detects_the_cycle_sequentially(self):
        # Single-threaded, sequential — no adversarial interleaving is
        # needed, because the observed graph is cumulative.
        san = LockOrderSanitizer()
        ledger = instrumented_ledger(san)
        ledger.debit(5)
        ledger.audit_scan()
        kinds = [v.kind for v in san.violations()]
        assert "lock-order-cycle" in kinds
        (cycle,) = [
            v for v in san.violations() if v.kind == "lock-order-cycle"
        ]
        assert LEDGER_KEY in cycle.detail and AUDIT_KEY in cycle.detail
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            san.assert_clean()

    def test_runtime_and_static_graphs_cross_validate(self):
        # Both directions: every runtime edge has a static counterpart
        # AND the static cycle was reproduced by the run above.
        san = LockOrderSanitizer()
        ledger = instrumented_ledger(san)
        ledger.debit(5)
        ledger.audit_scan()
        report = cross_validate(
            reconstruction_graph(), san, [LEDGER_KEY, AUDIT_KEY]
        )
        assert report.ok
        assert "OK" in report.render()


class TestExecutorTopologyReconstruction:
    """Runtime half of the process-backend acceptance scenario: the
    shard-lock/client-lock inversion LK001 flags statically is also
    tripped by the runtime sanitizer, and the two oracles agree."""

    def instrumented_frontend(self, sanitizer):
        frontend = FanoutFrontend()
        frontend.shard_lock = SanitizedLock(sanitizer, FANOUT_SHARD_KEY)
        frontend.client_lock = SanitizedLock(sanitizer, FANOUT_CLIENT_KEY)
        return frontend

    def test_sanitizer_detects_the_inverted_resync(self):
        san = LockOrderSanitizer()
        frontend = self.instrumented_frontend(san)
        frontend.serve()
        frontend.resync_replica()
        kinds = [v.kind for v in san.violations()]
        assert "lock-order-cycle" in kinds
        (cycle,) = [
            v for v in san.violations() if v.kind == "lock-order-cycle"
        ]
        assert FANOUT_SHARD_KEY in cycle.detail
        assert FANOUT_CLIENT_KEY in cycle.detail
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            san.assert_clean()

    def test_runtime_and_static_graphs_cross_validate(self):
        san = LockOrderSanitizer()
        frontend = self.instrumented_frontend(san)
        frontend.serve()
        frontend.resync_replica()
        static = build_lock_order_graph(
            [str(EXECUTOR_RECONSTRUCTION)], REPO_ROOT
        )
        report = cross_validate(
            static, san, [FANOUT_SHARD_KEY, FANOUT_CLIENT_KEY]
        )
        assert report.ok
        assert "OK" in report.render()


class TestCrossValidateFailures:
    def test_unexplained_runtime_edge_fails(self):
        # An edge between keys the static graph has never heard of —
        # the shape an analyzer blind spot would take.
        san = LockOrderSanitizer()
        san.note_acquired("tests.fixture.phantom_a", 0, "lock")
        san.note_acquired("tests.fixture.phantom_b", 0, "lock")
        san.note_released("tests.fixture.phantom_b", 0, "lock")
        san.note_released("tests.fixture.phantom_a", 0, "lock")
        report = cross_validate(reconstruction_graph(), san, [])
        assert not report.ok
        assert len(report.unexplained_runtime_edges) == 1
        assert "no static counterpart" in report.render()

    def test_unreproduced_static_cycle_fails(self):
        # Both cycle members were instrumented but the workload never
        # tripped the sanitizer: either a workload gap or a static
        # false positive — both demand attention.
        san = LockOrderSanitizer()
        report = cross_validate(
            reconstruction_graph(), san, [LEDGER_KEY, AUDIT_KEY]
        )
        assert not report.ok
        assert report.unreproduced_static_cycles == [
            sorted([AUDIT_KEY, LEDGER_KEY])
        ]
        assert "never reproduced" in report.render()

    def test_justified_cycle_passes(self):
        san = LockOrderSanitizer()
        graph = reconstruction_graph()
        (cycle,) = graph.cycles()
        report = cross_validate(
            graph,
            san,
            [LEDGER_KEY, AUDIT_KEY],
            justified_cycles=[cycle],
        )
        assert report.ok

    def test_uninstrumented_cycles_are_not_demanded(self):
        # The sanitizer never saw these locks, so their static cycle
        # cannot be expected back from the runtime graph.
        san = LockOrderSanitizer()
        report = cross_validate(reconstruction_graph(), san, [])
        assert report.ok


class TestServiceWorkload:
    """Live instrumented QueryService vs. the shipped-src graph."""

    def _small_cluster(self):
        cluster = ShardedCluster(
            topology=ClusterTopology(n_shards=4),
            chunk_max_bytes=4 * 1024,
        )
        cluster.shard_collection("t", [("k", 1)])
        rng = random.Random(11)
        cluster.insert_many(
            "t",
            [
                {"_id": i, "k": rng.randrange(0, 10_000), "group": i % 7}
                for i in range(200)
            ],
        )
        return cluster

    def test_workload_matches_static_graph(self, shipped_graph):
        san = LockOrderSanitizer()
        config = ServiceConfig(executor="thread")
        with QueryService(self._small_cluster(), config) as service:
            instrument_query_service(service, san)
            for lo in range(0, 8_000, 1_000):
                service.find("t", {"k": {"$gte": lo, "$lt": lo + 1_500}})
            service.insert_many(
                "t", [{"_id": 200 + i, "k": i} for i in range(20)]
            )
            service.delete_many("t", {"group": 3})
        assert san.violations() == []
        # On the thread backend a read routes and fans out under the
        # service lock alone: it nests no other instrumented lock, so
        # the observed graph is empty and still cross-validates clean
        # (no static cycle among the instrumented keys goes missing).
        assert not san.observed_edges()
        report = cross_validate(shipped_graph, san, INSTRUMENTED_KEYS)
        assert report.ok, report.render()

    def test_process_backend_workload_matches_static_graph(
        self, shipped_graph
    ):
        # The parent-side topology: the serving path nests each
        # worker client's lock under the service lock, never the
        # other way around, and never client under client.  The same
        # workload as above, run on the process backend, must observe
        # exactly edges the shipped-src graph explains.
        san = LockOrderSanitizer()
        config = ServiceConfig(executor="process")
        with QueryService(self._small_cluster(), config) as service:
            instrument_query_service(service, san)
            for lo in range(0, 8_000, 1_000):
                service.find("t", {"k": {"$gte": lo, "$lt": lo + 1_500}})
            service.insert_many(
                "t", [{"_id": 200 + i, "k": i} for i in range(20)]
            )
            service.delete_many("t", {"group": 3})
        assert san.violations() == []
        report = cross_validate(
            shipped_graph, san, [SERVICE_LOCK_KEY, EXECUTOR_CLIENT_LOCK_KEY]
        )
        assert report.ok, report.render()
        # The defining edge of the process topology must actually have
        # been exercised, not vacuously absent.
        assert (SERVICE_LOCK_KEY, EXECUTOR_CLIENT_LOCK_KEY) in {
            (edge.src, edge.dst) for edge in san.observed_edges()
        }
