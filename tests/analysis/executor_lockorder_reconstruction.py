"""A lock-order inversion in the process-executor topology, reconstructed.

The process backend added a second parent-side lock family: each
shard's worker client serializes its outbox under a client lock, and
the serving path holds the shard lock while enqueuing — the shipped
order is shard lock → client lock, everywhere.

This fixture reconstructs the tempting maintenance-path bug that
inverts it: a replica resync that snapshots the shard *under the
client lock* ("so nothing can race the sync frame into the outbox").
Each method is impeccable in isolation — every acquisition is a
``with`` statement, every shared attribute is mutated under a held
lock — so the LD rules stay silent.  The deadlock only exists between
functions:

* ``serve``          holds ``shard_lock``  → calls ``_enqueue``,
  which takes ``client_lock``            (edge shard → client)
* ``resync_replica`` holds ``client_lock`` → calls ``_snapshot``,
  which takes ``shard_lock``             (edge client → shard)

A reader thread in ``serve`` and a maintenance thread in
``resync_replica`` can each take their first lock and block forever
on the other's.  LK001 finds the cycle statically; the runtime
sanitizer finds it from a single-threaded, sequential execution of
both paths, because the observed acquisition graph is cumulative.
The shipped code avoids it: it forks a worker under the shard read
lock, taken *before* the client lock.
"""

from __future__ import annotations

import threading
from typing import List


class FanoutFrontend:
    """A toy mirror of the parent-side process-backend fan-out."""

    def __init__(self) -> None:
        self.shard_lock = threading.Lock()
        self.client_lock = threading.Lock()
        self.outbox: List[str] = []
        self.replica_epoch = 0

    def serve(self) -> None:
        """The read path: enqueue a subquery while the shard is locked."""
        with self.shard_lock:
            self._enqueue("subquery")

    def _enqueue(self, frame: str) -> None:
        with self.client_lock:
            self.outbox.append(frame)

    def resync_replica(self) -> int:
        """The inversion: snapshot the shard under the client lock."""
        with self.client_lock:
            return self._snapshot()

    def _snapshot(self) -> int:
        with self.shard_lock:
            self.replica_epoch += 1
            return self.replica_epoch
