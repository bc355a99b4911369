"""A B+tree: the index structure behind every MongoDB index.

Table 1 of the paper notes that MongoDB indexes (including its spatial
index) are B-trees.  This implementation is a textbook B+tree with
linked leaves, supporting duplicate logical keys by appending the record
id as a tiebreaker, plus the *seek* primitive the executor needs to
reproduce MongoDB's index-bounds scanning (and therefore its
``keysExamined`` numbers).

Keys must already be canonically comparable (see
:func:`repro.docstore.bson.sort_key`); the tree never interprets them.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["BPlusTree", "BTreeCursor"]

Entry = Tuple[Any, Any]  # (comparable key, payload)

#: Forward seeks scan at most this many leaves along the chain before
#: giving up and re-descending from the root.  Nearby targets (the
#: common case for Hilbert range sets, whose ranges cluster) stay
#: O(skipped leaves); far targets stay O(height).
_MAX_LEAF_SKIPS = 4

#: Node fill of a bottom-up build, as a fraction of ``order``: above the
#: 1/2 (ascending) to ~2/3 (random) that one-by-one insertion leaves, with
#: room for a live insert to land in a node before that node must split.
_BULK_FILL = 0.75


class _Leaf:
    __slots__ = ("keys", "payloads", "next", "prev")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.payloads: List[Any] = []
        self.next: Optional["_Leaf"] = None
        self.prev: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        self.keys: List[Any] = []
        self.children: List[Any] = []


class BPlusTree:
    """B+tree keyed by comparable values with arbitrary payloads.

    Parameters
    ----------
    order:
        Maximum number of children per internal node (and entries per
        leaf).  Real WiredTiger pages hold hundreds of keys; the default
        keeps trees shallow without hiding structure.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError("order must be at least 4, got %r" % order)
        self._order = order
        self._root: Any = _Leaf()
        self._first_leaf: _Leaf = self._root
        self._size = 0
        self._height = 1

    # -- basic properties -------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        """Maximum children per node / entries per leaf."""
        return self._order

    @property
    def height(self) -> int:
        """Number of levels, leaves included."""
        return self._height

    def min_key(self) -> Any:
        """Smallest key, or None when empty."""
        leaf = self._first_leaf
        while leaf is not None and not leaf.keys:
            leaf = leaf.next
        return leaf.keys[0] if leaf is not None and leaf.keys else None

    def max_key(self) -> Any:
        """Largest key, or None when empty."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    # -- mutation ----------------------------------------------------------

    def bulk_build(self, keys: List[Any], payloads: List[Any]) -> None:
        """Fill an empty tree bottom-up from entries in ascending key order.

        ``keys[i]`` pairs with ``payloads[i]``; duplicate keys keep the
        given order.  The result answers every read exactly as the same
        entries inserted one by one would, and accepts later inserts
        and removals: each separator is the smallest key of the subtree
        to its right, which is what a leaf split promotes.  One pass per
        level, no descent and no split.
        """
        if self._size:
            raise ValueError("bulk_build needs an empty tree")
        if not keys:
            return
        per_node = int(self._order * _BULK_FILL)
        level: List[Any] = []
        for start, stop in _even_slices(len(keys), per_node):
            leaf = _Leaf()
            leaf.keys = keys[start:stop]
            leaf.payloads = payloads[start:stop]
            if level:
                leaf.prev = level[-1]
                level[-1].next = leaf
            level.append(leaf)
        self._first_leaf = level[0]
        mins = [leaf.keys[0] for leaf in level]
        height = 1
        while len(level) > 1:
            parents: List[Any] = []
            parent_mins: List[Any] = []
            for start, stop in _even_slices(len(level), per_node):
                node = _Internal()
                node.children = level[start:stop]
                node.keys = mins[start + 1 : stop]
                parents.append(node)
                parent_mins.append(mins[start])
            level, mins = parents, parent_mins
            height += 1
        self._root = level[0]
        self._height = height
        self._size = len(keys)

    def insert(self, key: Any, payload: Any) -> None:
        """Insert an entry; duplicate keys are allowed and preserved."""
        split = self._insert(self._root, key, payload)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert(self, node: Any, key: Any, payload: Any):
        if isinstance(node, _Leaf):
            idx = bisect.bisect_right(node.keys, key)
            node.keys.insert(idx, key)
            node.payloads.insert(idx, payload)
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, payload)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.payloads = leaf.payloads[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.payloads = leaf.payloads[:mid]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.children) // 2
        right = _Internal()
        sep = node.keys[mid - 1]
        right.keys = node.keys[mid:]
        right.children = node.children[mid:]
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        return sep, right

    def remove(self, key: Any, payload: Any) -> bool:
        """Remove one entry matching both key and payload.

        Returns True when an entry was removed.  Underflowed leaves are
        left in place (lazy deletion), which matches how we use the tree
        — bulk load, then read-heavy querying — and keeps scans correct.
        """
        leaf, idx = self._find_leaf(key)
        while leaf is not None:
            if idx >= len(leaf.keys):
                leaf = leaf.next
                idx = 0
                continue
            if leaf.keys[idx] != key and leaf.keys[idx] > key:
                return False
            if leaf.keys[idx] == key and leaf.payloads[idx] == payload:
                del leaf.keys[idx]
                del leaf.payloads[idx]
                self._size -= 1
                return True
            idx += 1
        return False

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> Tuple[_Leaf, int]:
        """Leaf and slot of the first entry with key >= ``key``."""
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_left(node.keys, key)
            # Equal separators may have equal keys in the left child
            # (duplicates straddle splits), so descend left on equality.
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        return node, idx

    def locate(self, key: Any) -> Tuple[_Leaf, int]:
        """Leaf and slot of the first entry with key >= ``key``.

        One root-to-leaf descent, then a back-up: ``bisect_left`` on the
        leaf already lands at the first entry >= ``key``, but a
        preceding leaf can also hold equal keys when a split separated
        them.
        """
        leaf, idx = self._find_leaf(key)
        prev = leaf.prev
        while prev is not None and prev.keys and prev.keys[-1] >= key:
            idx = bisect.bisect_left(prev.keys, key)
            leaf = prev
            prev = leaf.prev
        return leaf, idx

    def seek_from(
        self, leaf: _Leaf, idx: int, key: Any
    ) -> Tuple[Optional[_Leaf], int]:
        """Reposition forward from slot ``idx`` of ``leaf``.

        Returns the leaf and slot of the first entry with key >= ``key``
        at or after the given position, or ``(None, 0)`` when the chain
        runs out: a bisect when the target is on the same leaf, at most
        :data:`_MAX_LEAF_SKIPS` next-pointer hops when it is near, a
        fresh :meth:`locate` otherwise.  A target at or before the
        position leaves it where it is.
        """
        keys = leaf.keys
        if keys and not keys[-1] < key:
            return leaf, bisect.bisect_left(keys, key, idx)
        for _ in range(_MAX_LEAF_SKIPS):
            leaf = leaf.next
            if leaf is None:
                return None, 0
            keys = leaf.keys
            if keys and not keys[-1] < key:
                return leaf, bisect.bisect_left(keys, key)
        return self.locate(key)

    def seek(self, key: Any) -> Iterator[Entry]:
        """Iterate entries with key >= ``key`` in ascending order."""
        leaf: Optional[_Leaf]
        leaf, idx = self.locate(key)
        while leaf is not None:
            keys = leaf.keys
            payloads = leaf.payloads
            while idx < len(keys):
                yield keys[idx], payloads[idx]
                idx += 1
            leaf = leaf.next
            idx = 0

    def scan_all(self) -> Iterator[Entry]:
        """Iterate every entry in ascending key order."""
        leaf: Optional[_Leaf] = self._first_leaf
        while leaf is not None:
            yield from zip(leaf.keys, leaf.payloads)
            leaf = leaf.next

    def cursor(self) -> "BTreeCursor":
        """A persistent forward cursor supporting repeated seeks."""
        return BTreeCursor(self)

    def scan_ranges(
        self, ranges: Iterator[Tuple[Any, Any, bool, bool]]
    ) -> Iterator[Entry]:
        """Iterate entries across sorted ``(lo, hi, lo_incl, hi_incl)``
        ranges with one descent and leaf-to-leaf skips in between.

        Ranges must be ascending and non-overlapping (the planner's
        interval lists and :class:`~repro.sfc.ranges.RangeSet` both
        are).  Compared with one :meth:`seek` per range this trades N
        root-to-leaf descents for bounded next-pointer hops, which is
        the difference Hilbert ``$or`` plans with thousands of ranges
        feel.
        """
        cursor = self.cursor()
        for lo, hi, lo_inclusive, hi_inclusive in ranges:
            cursor.seek(lo)
            while True:
                entry = cursor.peek()
                if entry is None:
                    return
                key = entry[0]
                if not lo_inclusive and key == lo:
                    cursor.advance()
                    continue
                if key > hi or (not hi_inclusive and key == hi):
                    # Overshoot key stays unconsumed: the next range's
                    # seek starts from it without re-examining.
                    break
                yield entry
                cursor.advance()

    def count_range(
        self,
        lo: Any,
        hi: Any,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> int:
        """Number of entries with lo ≤/< key ≤/< hi (used for costing)."""
        return sum(
            1
            for _ in self.scan_ranges(
                [(lo, hi, lo_inclusive, hi_inclusive)]
            )
        )

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on damage.

        Checked: every internal node has one more child than
        separators; every separator bounds its subtrees (largest key
        on its left <= separator <= smallest key on its right — equal
        keys may sit on the left, which is why :meth:`_find_leaf`
        descends left on equality); every leaf sits at ``height``; the
        ``next``/``prev`` chain from the first leaf visits exactly the
        leaves of an in-order walk; keys ascend along it; and the entry
        count matches ``len``.  Leaves emptied by lazy deletion are
        legal and bound nothing.
        """
        in_order: List[_Leaf] = []
        self._validate_node(self._root, 1, in_order)
        chain: List[_Leaf] = []
        leaf: Optional[_Leaf] = self._first_leaf
        while leaf is not None:
            before = chain[-1] if chain else None
            assert leaf.prev is before, "leaf prev pointer off the chain"
            chain.append(leaf)
            leaf = leaf.next
        assert len(chain) == len(in_order) and all(
            a is b for a, b in zip(chain, in_order)
        ), "leaf chain differs from the in-order walk"
        seen = 0
        last = None
        for key, _ in self.scan_all():
            if last is not None:
                assert not key < last, "leaf chain out of order"
            last = key
            seen += 1
        assert seen == self._size, "size %d != walked %d" % (self._size, seen)

    def _validate_node(
        self, node: Any, depth: int, in_order: List[_Leaf]
    ) -> Optional[Tuple[Any, Any]]:
        """Validate a subtree; returns its (min, max) key, None if empty."""
        if isinstance(node, _Leaf):
            assert depth == self._height, "leaf at depth %d, height %d" % (
                depth,
                self._height,
            )
            assert len(node.keys) == len(node.payloads)
            in_order.append(node)
            return (node.keys[0], node.keys[-1]) if node.keys else None
        assert len(node.children) == len(node.keys) + 1
        spans = [
            self._validate_node(child, depth + 1, in_order)
            for child in node.children
        ]
        for i, sep in enumerate(node.keys):
            if i:
                assert not sep < node.keys[i - 1], "separators out of order"
            left = next((s for s in reversed(spans[: i + 1]) if s), None)
            right = next((s for s in spans[i + 1 :] if s), None)
            assert left is None or not sep < left[1], (
                "separator %r below a key on its left" % (sep,)
            )
            assert right is None or not right[0] < sep, (
                "separator %r above a key on its right" % (sep,)
            )
        filled = [s for s in spans if s]
        return (filled[0][0], filled[-1][1]) if filled else None


def _even_slices(n: int, cap: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of the fewest near-equal runs of at most ``cap``."""
    groups = -(-n // cap)
    base, extra = divmod(n, groups)
    start = 0
    for i in range(groups):
        stop = start + base + (1 if i < extra else 0)
        yield start, stop
        start = stop


class BTreeCursor:
    """A forward-only cursor with re-seek support.

    Unlike :meth:`BPlusTree.seek`, which descends from the root every
    call, a cursor remembers its leaf position; seeking to a nearby
    larger key walks the leaf chain instead of re-descending.  The
    peek/advance split lets callers inspect a key without consuming it
    — :meth:`BPlusTree.scan_ranges` relies on that to hand an overshoot
    key to the next range (a consuming iterator would either lose it or
    re-examine it, both of which corrupt ``keysExamined``).

    Seeking backward (to a key at or before the current position) is a
    no-op by design; every caller seeks monotonically.
    """

    __slots__ = ("_tree", "_leaf", "_idx", "_started")

    def __init__(self, tree: BPlusTree) -> None:
        self._tree = tree
        self._leaf: Optional[_Leaf] = None
        self._idx = 0
        self._started = False

    def seek(self, key: Any) -> None:
        """Position at the first unconsumed entry with key >= ``key``."""
        if not self._started:
            self._started = True
            self._leaf, self._idx = self._tree.locate(key)
        elif self._leaf is not None:  # None: exhausted, nothing ahead
            self._leaf, self._idx = self._tree.seek_from(
                self._leaf, self._idx, key
            )

    def peek(self) -> Optional[Entry]:
        """The entry under the cursor without consuming it, or None."""
        leaf = self._leaf
        while leaf is not None:
            if self._idx < len(leaf.keys):
                self._leaf = leaf
                return leaf.keys[self._idx], leaf.payloads[self._idx]
            leaf = leaf.next
            self._idx = 0
        self._leaf = None
        return None

    def advance(self) -> None:
        """Consume the entry :meth:`peek` returned."""
        self._idx += 1
