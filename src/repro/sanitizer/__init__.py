"""Runtime sanitizers: lock order and filesystem crash consistency.

The static analyses (:mod:`repro.analysis.lockgraph`,
:mod:`repro.analysis.fsmodel`) and this package check each other.
Instrumented locks record the per-thread acquisition graph while tests
and stress runs execute, and :func:`cross_validate` compares the
observed graph against the static one.  The filesystem-trace oracle
(:class:`FsTracer`) records the write path's syscall-level effects,
flags ordering violations live, replays crash prefixes at effect
boundaries, and :func:`cross_validate_fs` holds the trace and the
static FS model to account for each other: a runtime ordering the
model claimed impossible fails the run, and so does a static finding
no trace or justification can back.  The cache epoch tracer
(:class:`CacheTracer`) does the same for the cache-coherence rules:
it stamps every instrumented cache fill with the generation vector of
its governing invalidation domains, rechecks the stamp at hit time,
and :func:`cross_validate_cache` matches stale hits against static
CC findings in both directions.
"""

from repro.sanitizer.cachetrace import (
    CACHE_INSTRUMENTED_PATHS,
    CacheTracer,
    CacheViolation,
    trace_cache,
)
from repro.sanitizer.core import (
    LockOrderSanitizer,
    ObservedEdge,
    SanitizerViolation,
)
from repro.sanitizer.crossval import (
    CacheCrossValidationReport,
    CrossValidationReport,
    FsCrossValidationReport,
    cross_validate,
    cross_validate_cache,
    cross_validate_fs,
)
from repro.sanitizer.fstrace import (
    LSM_FS_PATHS,
    MUTATING_OPS,
    CrashReplayResult,
    FsEvent,
    FsTracer,
    FsViolation,
    InjectedCrash,
    lsm_fs_modules,
    sweep_crash_boundaries,
)
from repro.sanitizer.instrument import (
    EXECUTOR_CLIENT_LOCK_KEY,
    INSTRUMENTED_KEYS,
    LSM_INSTRUMENTED_KEYS,
    LSM_MANIFEST_LOCK_KEY,
    LSM_WRITE_LOCK_KEY,
    SERVICE_LOCK_KEY,
    WAL_LOCK_KEY,
    WORKER_HOST_LOCK_KEY,
    instrument_lsm_engine,
    instrument_query_service,
    instrument_worker_host,
)
from repro.sanitizer.locks import SanitizedLock, SanitizedReadWriteLock

__all__ = [
    "CACHE_INSTRUMENTED_PATHS",
    "CacheCrossValidationReport",
    "CacheTracer",
    "CacheViolation",
    "CrashReplayResult",
    "CrossValidationReport",
    "EXECUTOR_CLIENT_LOCK_KEY",
    "FsCrossValidationReport",
    "FsEvent",
    "FsTracer",
    "FsViolation",
    "INSTRUMENTED_KEYS",
    "InjectedCrash",
    "LSM_FS_PATHS",
    "LSM_INSTRUMENTED_KEYS",
    "LSM_MANIFEST_LOCK_KEY",
    "LSM_WRITE_LOCK_KEY",
    "LockOrderSanitizer",
    "MUTATING_OPS",
    "ObservedEdge",
    "SERVICE_LOCK_KEY",
    "SanitizedLock",
    "SanitizedReadWriteLock",
    "SanitizerViolation",
    "WAL_LOCK_KEY",
    "WORKER_HOST_LOCK_KEY",
    "cross_validate",
    "cross_validate_cache",
    "cross_validate_fs",
    "instrument_lsm_engine",
    "instrument_query_service",
    "instrument_worker_host",
    "lsm_fs_modules",
    "sweep_crash_boundaries",
    "trace_cache",
]
