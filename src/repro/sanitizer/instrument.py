"""Swap a QueryService's (or LSM engine's) locks for sanitized ones.

The service's one reader-writer lock is held across functions, under
concurrency, while (on the process backend) the worker clients' locks
are taken under it; on the thread backend it nests no instrumented
lock.  Instrumenting each with the *static* registry symbol of its
attribute makes the observed graph line up key-for-key with the
analyzer's.

The LSM engine adds a second surface (PR-5): writer threads nest
``_write_lock`` → ``_manifest_lock`` / WAL lock while a background
compaction worker takes ``_manifest_lock`` on its own schedule.
:func:`instrument_lsm_engine` swaps those three for sanitized
wrappers so the runtime graph covers flush-vs-compaction ordering.
"""

from __future__ import annotations

import threading

from repro.docstore.lsm.engine import LSMEngine
from repro.sanitizer.core import LockOrderSanitizer
from repro.sanitizer.locks import SanitizedLock, SanitizedReadWriteLock
from repro.service import executors
from repro.service.service import QueryService

__all__ = [
    "SERVICE_LOCK_KEY",
    "EXECUTOR_CLIENT_LOCK_KEY",
    "WORKER_HOST_LOCK_KEY",
    "LSM_WRITE_LOCK_KEY",
    "LSM_MANIFEST_LOCK_KEY",
    "WAL_LOCK_KEY",
    "INSTRUMENTED_KEYS",
    "LSM_INSTRUMENTED_KEYS",
    "instrument_query_service",
    "instrument_worker_host",
    "instrument_lsm_engine",
]

#: The static lock-registry symbols of the instrumented locks; each
#: must match what :mod:`repro.analysis.lockgraph` derives from the
#: source, or cross-validation would compare disjoint graphs.
SERVICE_LOCK_KEY = "repro.service.service.QueryService._lock"
EXECUTOR_CLIENT_LOCK_KEY = "repro.service.executors._WorkerClient._lock"
WORKER_HOST_LOCK_KEY = "repro.service.executors._WorkerHost._lock"
LSM_WRITE_LOCK_KEY = "repro.docstore.lsm.engine.LSMEngine._write_lock"
LSM_MANIFEST_LOCK_KEY = "repro.docstore.lsm.engine.LSMEngine._manifest_lock"
WAL_LOCK_KEY = "repro.docstore.lsm.wal.WriteAheadLog._lock"

#: Every key :func:`instrument_query_service` can wire up — the set to
#: hand :func:`~repro.sanitizer.crossval.cross_validate`.
INSTRUMENTED_KEYS = (
    SERVICE_LOCK_KEY,
    EXECUTOR_CLIENT_LOCK_KEY,
)

#: Every key :func:`instrument_lsm_engine` can wire up.
LSM_INSTRUMENTED_KEYS = (
    LSM_WRITE_LOCK_KEY,
    LSM_MANIFEST_LOCK_KEY,
    WAL_LOCK_KEY,
)


def instrument_query_service(
    service: QueryService, sanitizer: LockOrderSanitizer
) -> QueryService:
    """Replace the service's locks with sanitized wrappers.

    Covers the service's reader-writer lock and, on the process
    backend, the worker clients' locks a read takes under it.

    Must run before the service is used — swapping a lock someone
    already holds would split its waiters across two objects.
    """
    service._lock = SanitizedReadWriteLock(sanitizer, SERVICE_LOCK_KEY)
    if service._worker_pool is not None:
        # The process backend's parent-side topology: per-worker client
        # locks, ranked by worker index (the pool never nests them, so
        # any observed client→client edge is itself a violation worth
        # surfacing).  Clients lazily spawn their process/reader thread
        # on the first read, so swapping here is race-free.
        for rank, client in enumerate(service._worker_pool.clients()):
            client._lock = SanitizedLock(
                sanitizer, EXECUTOR_CLIENT_LOCK_KEY, rank
            )
    return service


def instrument_worker_host(host, sanitizer: LockOrderSanitizer):
    """Instrument a shard worker's host lock, inside the worker process.

    Runs in ``_worker_main`` when ``REPRO_WORKER_SANITIZE`` is set: the
    worker has its own interpreter, so the parent's sanitizer cannot
    see this lock — instead each worker runs its *own* sanitizer and
    ships any violation back on every
    :class:`~repro.service.wire.ResultFrame`, where the parent raises.
    Must run before the host serves its first batch.
    """
    host._lock = SanitizedLock(sanitizer, WORKER_HOST_LOCK_KEY)
    host._sanitizer = sanitizer
    return host


def _default_worker_instrumenter(host):
    """What a sanitized worker runs at startup: its own fresh sanitizer."""
    return instrument_worker_host(host, LockOrderSanitizer())


# The layering test (tests/test_public_api.py) forbids executors from
# importing this package, so the worker hook is registered from above:
# importing repro.sanitizer arms worker self-instrumentation, and
# fork-started workers inherit the registration.
executors.worker_instrumenter = _default_worker_instrumenter


def instrument_lsm_engine(
    engine: LSMEngine, sanitizer: LockOrderSanitizer
) -> LSMEngine:
    """Replace an LSM engine's locks with sanitized wrappers.

    Must run *before* ``engine.recover()``: recovery starts the compaction
    worker and the first WAL segment, and a lock swapped while someone
    holds it would split its waiters across two objects.  The engine's
    condition variables are rebuilt over the wrapped locks
    (``threading.Condition`` accepts any acquire/release object), and a
    lock factory is installed so every WAL segment the engine creates —
    including ones born inside a flush — carries the instrumented key.
    """
    if getattr(engine, "_opened", False):
        raise RuntimeError(
            "instrument_lsm_engine must run before engine.recover()"
        )
    engine._write_lock = SanitizedLock(sanitizer, LSM_WRITE_LOCK_KEY)
    engine._manifest_lock = SanitizedLock(sanitizer, LSM_MANIFEST_LOCK_KEY)
    engine._compact_cond = threading.Condition(engine._manifest_lock)
    engine._wal_lock_factory = lambda: SanitizedLock(sanitizer, WAL_LOCK_KEY)
    return engine
