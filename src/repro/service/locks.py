"""The query-serving frontend's reader-writer lock.

The service's concurrency contract mirrors a database node's: queries
may read at the same time, while a write takes exclusive access.
Python's standard library has no reader-writer lock, so this module
provides a small one that grants strictly in arrival order.  Neither
side can starve the other: a writer that releases and asks again at
once queues behind the reader it woke, and a steady read stream
cannot hold off a waiting writer.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque

__all__ = ["ReadWriteLock"]


class _Ticket:
    """One queued request: shared or exclusive."""

    __slots__ = ("exclusive",)

    def __init__(self, exclusive: bool) -> None:
        self.exclusive = exclusive


class ReadWriteLock:
    """A FIFO shared/exclusive lock.

    Every acquirer joins one queue.  An exclusive request is granted at
    the head of the queue once nobody holds the lock; a shared request
    is granted once no writer holds it and no exclusive request is
    queued ahead of it, so consecutive shared requests at the head are
    granted together.  A waiter whose timeout expires leaves the queue,
    and the next one looks again.  Not reentrant in either mode.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: Deque[_Ticket] = deque()
        self._readers = 0
        self._writer = False

    def _grantable(self, ticket: _Ticket) -> bool:
        if self._writer:
            return False
        if ticket.exclusive:
            return self._readers == 0 and self._queue[0] is ticket
        for ahead in self._queue:
            if ahead is ticket:
                break
            if ahead.exclusive:
                return False
        return True

    def _acquire(self, exclusive: bool, timeout: float | None) -> bool:
        ticket = _Ticket(exclusive)
        with self._cond:
            self._queue.append(ticket)
            granted = self._cond.wait_for(
                lambda: self._grantable(ticket), timeout=timeout
            )
            self._queue.remove(ticket)
            if granted and exclusive:
                self._writer = True
                return True
            if granted:
                self._readers += 1
            # A shared grant may let the shared waiters behind it in; a
            # waiter that gave up may have been what blocked the next.
            self._cond.notify_all()
            return granted

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Enter shared mode; returns False on timeout."""
        return self._acquire(False, timeout)

    def release_read(self) -> None:
        """Leave shared mode."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Enter exclusive mode; returns False on timeout."""
        return self._acquire(True, timeout)

    def release_write(self) -> None:
        """Leave exclusive mode."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()
