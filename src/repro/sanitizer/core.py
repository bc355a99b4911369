"""The sanitizer core: per-thread held stacks and the observed graph.

Detection is lockdep-style: every acquisition adds ``held → acquired``
edges to a process-wide graph, so a cycle is caught as soon as two
code paths have *ever* used conflicting orders — no actual deadlock or
adversarial thread timing is required.  Within one lock collection
(such as the worker clients' locks) members are ranked, and
acquisitions must walk ranks upward; a descending acquisition is an
inversion even before any opposing thread exists.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["LockOrderSanitizer", "ObservedEdge", "SanitizerViolation"]


@dataclass(frozen=True)
class ObservedEdge:
    """``src`` was held by the acquiring thread when ``dst`` was taken.

    ``ordered`` is True only when every observation of a same-key edge
    walked member ranks upward (the sorted-collection discipline).
    """

    src: str
    dst: str
    ordered: bool


@dataclass(frozen=True)
class SanitizerViolation:
    """One runtime lock-discipline violation."""

    kind: str  # lock-order-cycle | lock-order-inversion |
    #          # reentrant-acquire | long-read-hold
    key: str
    thread: str
    detail: str


#: One per-thread stack entry: (key, rank, mode, acquire timestamp).
_HeldEntry = Tuple[str, int, str, float]


class LockOrderSanitizer:
    """Accumulates the runtime lock-order graph and its violations.

    Thread-safe: per-thread held stacks live in a ``threading.local``,
    and the shared graph/violation state is only touched under
    ``self._lock``.
    """

    def __init__(self, long_read_hold_s: float = 60.0) -> None:
        self._lock = threading.Lock()
        self._held = threading.local()
        self._graph: Dict[Tuple[str, str], bool] = {}
        self._violations: List[SanitizerViolation] = []
        self._violation_keys: Set[Tuple[str, str, str]] = set()
        #: Read holds longer than this are reported; the default is
        #: high enough that only a genuine stall (not a slow CI box)
        #: trips it.
        self.long_read_hold_s = long_read_hold_s

    # -- instrumented-lock callbacks -------------------------------------------

    def note_acquired(self, key: str, rank: int, mode: str) -> None:
        """An instrumented lock was acquired by the current thread."""
        stack = self._thread_stack()
        edges: List[Tuple[str, str, bool]] = []
        problems: List[Tuple[str, str]] = []
        for held_key, held_rank, _held_mode, _since in stack:
            if held_key == key:
                if rank > held_rank:
                    edges.append((key, key, True))
                elif rank < held_rank:
                    edges.append((key, key, False))
                    problems.append(
                        (
                            "lock-order-inversion",
                            "rank %d acquired while holding rank %d "
                            "of %s" % (rank, held_rank, key),
                        )
                    )
                else:
                    problems.append(
                        (
                            "reentrant-acquire",
                            "rank %d of %s acquired twice by one "
                            "thread" % (rank, key),
                        )
                    )
            else:
                edges.append((held_key, key, False))
        self._commit(key, edges, problems)
        stack.append((key, rank, mode, time.perf_counter()))

    def note_released(self, key: str, rank: int, mode: str) -> None:
        """An instrumented lock was released by the current thread."""
        stack = self._thread_stack()
        for position in range(len(stack) - 1, -1, -1):
            held_key, held_rank, held_mode, since = stack[position]
            if (held_key, held_rank, held_mode) == (key, rank, mode):
                del stack[position]
                held_for = time.perf_counter() - since
                if mode == "read" and held_for > self.long_read_hold_s:
                    self._commit(
                        key,
                        [],
                        [
                            (
                                "long-read-hold",
                                "read lock %s held %.3fs (threshold "
                                "%.3fs)"
                                % (key, held_for, self.long_read_hold_s),
                            )
                        ],
                    )
                return
        self._commit(
            key,
            [],
            [
                (
                    "unbalanced-release",
                    "%s released in %s mode without a matching "
                    "acquire on this thread" % (key, mode),
                )
            ],
        )

    # -- read API --------------------------------------------------------------

    def observed_edges(self) -> Set[ObservedEdge]:
        """Every edge observed so far."""
        with self._lock:
            return {
                ObservedEdge(src, dst, ordered)
                for (src, dst), ordered in self._graph.items()
            }

    def violations(self) -> List[SanitizerViolation]:
        """Every violation recorded so far, in detection order."""
        with self._lock:
            return list(self._violations)

    def assert_clean(self) -> None:
        """Raise AssertionError when any violation was recorded."""
        found = self.violations()
        if found:
            raise AssertionError(
                "lock-order sanitizer recorded %d violation(s):\n%s"
                % (
                    len(found),
                    "\n".join(
                        "  [%s] %s (thread %s)"
                        % (v.kind, v.detail, v.thread)
                        for v in found
                    ),
                )
            )

    # -- internals -------------------------------------------------------------

    def _thread_stack(self) -> List[_HeldEntry]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _commit(
        self,
        key: str,
        edges: List[Tuple[str, str, bool]],
        problems: List[Tuple[str, str]],
    ) -> None:
        thread = threading.current_thread().name
        with self._lock:
            for src, dst, ordered in edges:
                previous = self._graph.get((src, dst))
                self._graph[(src, dst)] = (
                    ordered if previous is None else (previous and ordered)
                )
            for src, dst, _ordered in edges:
                if src == dst:
                    continue
                cycle = self._cycle_through(src, dst)
                if cycle is not None:
                    problems.append(
                        (
                            "lock-order-cycle",
                            "acquiring %s while holding %s closes the "
                            "cycle %s"
                            % (dst, src, " -> ".join(cycle + [cycle[0]])),
                        )
                    )
            for kind, detail in problems:
                dedup = (kind, key, detail)
                if dedup in self._violation_keys:
                    continue
                self._violation_keys.add(dedup)
                self._violations.append(
                    SanitizerViolation(
                        kind=kind, key=key, thread=thread, detail=detail
                    )
                )

    def _cycle_through(
        self, src: str, dst: str
    ) -> Optional[List[str]]:
        """A path ``dst → … → src`` in the cross-key graph, if any.

        Caller holds ``self._lock`` and has just added ``src → dst``;
        any such path closes a cycle.
        """
        adjacency: Dict[str, Set[str]] = {}
        for graph_src, graph_dst in self._graph:
            if graph_src != graph_dst:
                adjacency.setdefault(graph_src, set()).add(graph_dst)
        path: List[str] = []
        seen: Set[str] = set()

        def walk(node: str) -> bool:
            if node == src:
                return True
            if node in seen:
                return False
            seen.add(node)
            path.append(node)
            for child in sorted(adjacency.get(node, ())):
                if walk(child):
                    return True
            path.pop()
            return False

        if walk(dst):
            return [src] + path
        return None
