"""The cache primitive as a state machine, plus a thread hammer.

:class:`repro.cache.StampedLRUCache` is the store behind the targeting
memo, the range-decomposition memo and the statistics catalog, so its
contract is checked once, here: random ``get`` / ``put`` / ``clear``
sequences with stamps over a small bound, against a plain-list model
kept in least-recently-used order.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache import StampedLRUCache

BOUND = 3
KEYS = st.sampled_from("abcde")
STAMPS = st.sampled_from([None, 1, 2])


class StampedLRUMachine(RuleBasedStateMachine):
    """The primitive against ``[key, stamp, value]`` entries, LRU first."""

    def __init__(self) -> None:
        super().__init__()
        self.cache = StampedLRUCache(max_entries=BOUND)
        self.model: list = []
        self.lookups = 0
        self.expected = {"hits": 0, "misses": 0, "stale": 0, "evictions": 0}

    def _index(self, key):
        for index, entry in enumerate(self.model):
            if entry[0] == key:
                return index
        return None

    @rule(key=KEYS, stamp=STAMPS)
    def get(self, key, stamp):
        got = self.cache.get(key, stamp=stamp)
        self.lookups += 1
        index = self._index(key)
        if index is None or self.model[index][1] != stamp:
            # A stamp mismatch never returns the value.
            assert got is None
            self.expected["misses"] += 1
            if index is not None:
                self.expected["stale"] += 1
            return
        entry = self.model.pop(index)
        self.model.append(entry)  # a hit refreshes the entry
        assert got == entry[2]
        self.expected["hits"] += 1

    @rule(key=KEYS, stamp=STAMPS, value=st.integers())
    def put(self, key, stamp, value):
        self.cache.put(key, value, stamp=stamp)
        index = self._index(key)
        if index is not None:
            self.model.pop(index)
        self.model.append([key, stamp, value])
        while len(self.model) > BOUND:
            self.model.pop(0)  # the least recently used entry goes
            self.expected["evictions"] += 1

    @rule()
    def clear(self):
        self.cache.clear()
        self.model = []

    @invariant()
    def counters_and_order_match_the_model(self):
        stats = self.cache.stats()
        assert stats == dict(self.expected, entries=len(self.model))
        assert stats["hits"] + stats["misses"] == self.lookups
        assert stats["stale"] <= stats["misses"]
        assert stats["entries"] <= BOUND
        assert list(self.cache._entries) == [e[0] for e in self.model]


TestStampedLRUMachine = StampedLRUMachine.TestCase
TestStampedLRUMachine.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)


def test_rejects_a_non_positive_bound():
    with pytest.raises(ValueError):
        StampedLRUCache(max_entries=0)


def test_four_thread_hammer_counters_add_up():
    """Concurrent puts and lookups: every counter accounted for exactly.

    Each thread inserts keys no other thread uses, so every put adds an
    entry and ``entries + evictions`` must equal the puts; each thread
    counts the lookups it saw answered, so ``hits`` and ``misses`` must
    equal their sums.
    """
    bound, per_thread, n_threads = 64, 2_000, 4
    cache = StampedLRUCache(max_entries=bound)
    observed = [[0, 0] for _ in range(n_threads)]  # [hits, misses]
    start = threading.Barrier(n_threads)

    def hammer(tid):
        start.wait(timeout=60)
        seen = observed[tid]
        for i in range(per_thread):
            cache.put((tid, i), i, stamp=tid)
            for key, stamp in (((tid, i), tid), ((tid, i // 2), -1)):
                if cache.get(key, stamp=stamp) is None:
                    seen[1] += 1
                else:
                    seen[0] += 1

    threads = [
        threading.Thread(target=hammer, args=(tid,))
        for tid in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt often: interleave inside methods
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats()
    assert stats["hits"] == sum(h for h, _ in observed)
    assert stats["misses"] == sum(m for _, m in observed)
    assert stats["hits"] + stats["misses"] == 2 * per_thread * n_threads
    assert stats["entries"] == bound
    assert stats["entries"] + stats["evictions"] == per_thread * n_threads
    assert stats["stale"] <= stats["misses"]
    # A lookup under a foreign stamp never hits.
    assert stats["hits"] <= per_thread * n_threads
