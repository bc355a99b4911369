"""Reader-writer locks for the query-serving frontend.

The service's concurrency contract mirrors a database node's: any
number of queries may read a shard simultaneously, while a write takes
exclusive access.  Python's standard library has no reader-writer
lock, so this module provides a small writer-preferring one — writers
park readers once they start waiting, which keeps a write-heavy burst
from being starved by a steady read stream.

:class:`FifoTurn` is the other primitive: one holder at a time,
granted strictly in arrival order — what the thread backend's reads
take turns through.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Deque

__all__ = ["FifoTurn", "ReadWriteLock"]


class ReadWriteLock:
    """A writer-preferring shared/exclusive lock.

    Readers hold the lock concurrently; a writer waits for active
    readers to drain and blocks new readers from entering while it
    waits (writer preference).  Not reentrant in either mode.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Enter shared mode; returns False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._active_writer and not self._waiting_writers,
                timeout=timeout,
            ) and self._enter_read()

    def _enter_read(self) -> bool:
        self._active_readers += 1
        return True

    def release_read(self) -> None:
        """Leave shared mode."""
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Enter exclusive mode; returns False on timeout."""
        with self._cond:
            self._waiting_writers += 1
            acquired = False
            try:
                acquired = self._cond.wait_for(
                    lambda: not self._active_writer
                    and self._active_readers == 0,
                    timeout=timeout,
                )
                if acquired:
                    self._active_writer = True
                return acquired
            finally:
                self._waiting_writers -= 1
                if not acquired:
                    # A timed-out writer stops parking readers; wake
                    # them, or they stay blocked until some unrelated
                    # release happens to notify.
                    self._cond.notify_all()

    def release_write(self) -> None:
        """Leave exclusive mode."""
        with self._cond:
            self._active_writer = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        """Context manager for shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """Context manager for exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class FifoTurn:
    """One holder at a time, granted strictly in arrival order.

    A ``Lock`` or ``Semaphore`` is not fair: a thread that releases and
    asks again at once usually wins before the waiter it woke gets to
    run, so one busy client can starve another.  Here every acquirer
    joins a queue and proceeds only from its head, once nobody holds
    the turn.  A waiter whose timeout expires leaves the queue, and the
    turn passes to the next.  Not reentrant.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: Deque[object] = deque()
        self._held = False

    def acquire(self, timeout: float | None = None) -> bool:
        """Wait for this caller's turn; returns False on timeout."""
        ticket = object()
        with self._cond:
            self._queue.append(ticket)
            granted = self._cond.wait_for(
                lambda: not self._held and self._queue[0] is ticket,
                timeout=timeout,
            )
            if granted:
                self._queue.popleft()
                self._held = True
            else:
                self._queue.remove(ticket)
                # The head may have changed; let the next waiter look.
                self._cond.notify_all()
            return granted

    def release(self) -> None:
        """End the holder's turn; the longest waiter gets the next."""
        with self._cond:
            self._held = False
            self._cond.notify_all()
