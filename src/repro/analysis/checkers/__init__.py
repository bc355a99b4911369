"""Built-in checkers; importing this package registers them all."""

from __future__ import annotations

from repro.analysis.checkers.cachecoherence import CacheCoherenceChecker
from repro.analysis.checkers.fsconsistency import FsConsistencyChecker
from repro.analysis.checkers.lock_discipline import LockDisciplineChecker
from repro.analysis.checkers.lockorder import LockOrderChecker

__all__ = [
    "CacheCoherenceChecker",
    "FsConsistencyChecker",
    "LockDisciplineChecker",
    "LockOrderChecker",
]
