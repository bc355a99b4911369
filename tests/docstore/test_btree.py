"""Tests for the B+tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.btree import BPlusTree


def build(entries, order=8):
    tree = BPlusTree(order=order)
    for k, v in entries:
        tree.insert(k, v)
    return tree


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.min_key() is None
        assert tree.max_key() is None
        assert list(tree.scan_all()) == []

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_and_scan_sorted(self):
        keys = list(range(100))
        random.Random(1).shuffle(keys)
        tree = build([(k, k * 10) for k in keys])
        scanned = list(tree.scan_all())
        assert [k for k, _ in scanned] == sorted(keys)
        assert all(v == k * 10 for k, v in scanned)

    def test_min_max(self):
        tree = build([(k, None) for k in (5, 1, 9, 3)])
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_duplicates_preserved(self):
        tree = build([(1, "a"), (1, "b"), (1, "c"), (2, "d")])
        assert len(tree) == 4
        payloads = [v for k, v in tree.scan_all() if k == 1]
        assert sorted(payloads) == ["a", "b", "c"]

    def test_height_grows(self):
        tree = build([(k, None) for k in range(1000)], order=4)
        assert tree.height > 2
        tree.validate()


class TestSeek:
    def test_seek_exact(self):
        tree = build([(k, None) for k in range(0, 100, 2)])
        entries = list(tree.seek(40))
        assert entries[0][0] == 40

    def test_seek_between_keys(self):
        tree = build([(k, None) for k in range(0, 100, 2)])
        entries = list(tree.seek(41))
        assert entries[0][0] == 42

    def test_seek_past_end(self):
        tree = build([(k, None) for k in range(10)])
        assert list(tree.seek(100)) == []

    def test_seek_before_start(self):
        tree = build([(k, None) for k in range(5, 10)])
        assert [k for k, _ in tree.seek(0)] == [5, 6, 7, 8, 9]

    def test_seek_finds_all_duplicates(self):
        # Duplicates may straddle leaf splits; seek must find the first.
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(7, i)
        for i in range(50):
            tree.insert(3, i)
        dupes = [v for k, v in tree.seek(7) if k == 7]
        assert len(dupes) == 50

    def test_seek_tuple_keys_prefix(self):
        # Tuple keys: a shorter seek tuple lands before all extensions.
        tree = build([((1, i), i) for i in range(10)] + [((2, 0), 99)])
        entries = list(tree.seek((2,)))
        assert entries[0] == ((2, 0), 99)


class TestRemove:
    def test_remove_existing(self):
        tree = build([(k, k) for k in range(20)])
        assert tree.remove(5, 5)
        assert len(tree) == 19
        assert 5 not in [k for k, _ in tree.scan_all()]

    def test_remove_missing_returns_false(self):
        tree = build([(1, 1)])
        assert not tree.remove(2, 2)
        assert not tree.remove(1, 999)  # wrong payload
        assert len(tree) == 1

    def test_remove_specific_duplicate(self):
        tree = build([(1, "a"), (1, "b")])
        assert tree.remove(1, "a")
        remaining = [v for _, v in tree.scan_all()]
        assert remaining == ["b"]

    def test_remove_all_then_reinsert(self):
        tree = build([(k, k) for k in range(50)], order=4)
        for k in range(50):
            assert tree.remove(k, k)
        assert len(tree) == 0
        tree.insert(7, 7)
        assert list(tree.scan_all()) == [(7, 7)]
        tree.validate()

    def test_scan_correct_after_removals(self):
        tree = build([(k, k) for k in range(100)], order=4)
        for k in range(0, 100, 3):
            tree.remove(k, k)
        expected = [k for k in range(100) if k % 3 != 0]
        assert [k for k, _ in tree.scan_all()] == expected
        tree.validate()


class TestCountRange:
    def test_inclusive(self):
        tree = build([(k, None) for k in range(10)])
        assert tree.count_range(3, 6) == 4

    def test_exclusive_bounds(self):
        tree = build([(k, None) for k in range(10)])
        assert tree.count_range(3, 6, lo_inclusive=False) == 3
        assert tree.count_range(3, 6, hi_inclusive=False) == 3
        assert (
            tree.count_range(3, 6, lo_inclusive=False, hi_inclusive=False)
            == 2
        )

    def test_empty_range(self):
        tree = build([(k, None) for k in range(10)])
        assert tree.count_range(100, 200) == 0


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=200), min_size=0, max_size=200
    ),
    order=st.integers(min_value=4, max_value=16),
)
def test_property_matches_sorted_list(keys, order):
    """The tree is observationally a sorted multiset."""
    tree = BPlusTree(order=order)
    for i, k in enumerate(keys):
        tree.insert(k, i)
    assert len(tree) == len(keys)
    assert [k for k, _ in tree.scan_all()] == sorted(keys)
    tree.validate()
    if keys:
        probe = keys[len(keys) // 2]
        expected_tail = sorted(k for k in keys if k >= probe)
        assert [k for k, _ in tree.seek(probe)] == expected_tail


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)),
        min_size=1,
        max_size=150,
    )
)
def test_property_insert_remove_interleaved(ops):
    """Random insert/remove sequences keep the tree consistent."""
    tree = BPlusTree(order=4)
    reference = []
    for is_insert, key in ops:
        if is_insert:
            tree.insert(key, key)
            reference.append(key)
        else:
            removed = tree.remove(key, key)
            if key in reference:
                assert removed
                reference.remove(key)
            else:
                assert not removed
    assert [k for k, _ in tree.scan_all()] == sorted(reference)
    tree.validate()


def _reference_scan(tree, ranges):
    """Per-range root descents — the semantics scan_ranges must match."""
    out = []
    for lo, hi, lo_inc, hi_inc in ranges:
        for key, payload in tree.seek(lo):
            if not lo_inc and key == lo:
                continue
            if key > hi or (not hi_inc and key == hi):
                break
            out.append((key, payload))
    return out


class TestScanRanges:
    def test_matches_per_range_seeks(self):
        tree = build([(k, k) for k in range(0, 200, 2)], order=4)
        ranges = [(3, 11, True, True), (40, 41, True, True),
                  (100, 140, True, False)]
        assert list(tree.scan_ranges(ranges)) == _reference_scan(
            tree, ranges
        )

    def test_exclusive_bounds(self):
        tree = build([(k, None) for k in range(10)], order=4)
        got = [k for k, _ in tree.scan_ranges([(2, 6, False, False)])]
        assert got == [3, 4, 5]

    def test_overshoot_key_feeds_next_range(self):
        # After range [0, 3] the cursor has peeked key 4 (the
        # overshoot); range [4, 5] must still yield it.
        tree = build([(k, None) for k in range(10)], order=4)
        got = [
            k
            for k, _ in tree.scan_ranges(
                [(0, 3, True, True), (4, 5, True, True)]
            )
        ]
        assert got == [0, 1, 2, 3, 4, 5]

    def test_duplicate_keys_across_leaf_splits(self):
        entries = [(5, i) for i in range(30)] + [(7, "x"), (3, "y")]
        tree = build(entries, order=4)
        got = list(tree.scan_ranges([(5, 5, True, True)]))
        assert [k for k, _ in got] == [5] * 30
        assert sorted(p for _, p in got) == sorted(range(30))

    def test_empty_ranges_between_keys(self):
        tree = build([(k, None) for k in (1, 10, 20)], order=4)
        got = [
            k
            for k, _ in tree.scan_ranges(
                [(2, 9, True, True), (11, 19, True, True),
                 (20, 25, True, True)]
            )
        ]
        assert got == [20]

    def test_randomized_against_reference(self):
        rng = random.Random(42)
        keys = [rng.randrange(0, 500) for _ in range(300)]
        tree = build([(k, i) for i, k in enumerate(keys)], order=4)
        for _ in range(25):
            cuts = sorted(rng.sample(range(0, 510), 6))
            ranges = [
                (
                    cuts[i],
                    cuts[i + 1] - 1,
                    rng.random() < 0.5,
                    rng.random() < 0.5,
                )
                for i in range(0, 6, 2)
                if cuts[i] <= cuts[i + 1] - 1
            ]
            assert list(tree.scan_ranges(ranges)) == _reference_scan(
                tree, ranges
            ), ranges


class TestCursor:
    def test_seek_peek_advance(self):
        tree = build([(k, k) for k in range(0, 20, 2)], order=4)
        cur = tree.cursor()
        cur.seek(5)
        assert cur.peek() == (6, 6)
        cur.advance()
        assert cur.peek() == (8, 8)

    def test_backward_seek_is_noop(self):
        tree = build([(k, None) for k in range(10)], order=4)
        cur = tree.cursor()
        cur.seek(7)
        cur.seek(2)  # must not move backward
        assert cur.peek()[0] == 7

    def test_seek_past_end_exhausts(self):
        tree = build([(k, None) for k in range(5)], order=4)
        cur = tree.cursor()
        cur.seek(100)
        assert cur.peek() is None
        cur.seek(0)  # exhausted cursors stay exhausted
        assert cur.peek() is None

    def test_nearby_seek_walks_leaf_chain(self):
        # Monotone seeks across many leaves must agree with fresh
        # root descents at every step.
        tree = build([(k, k) for k in range(200)], order=4)
        cur = tree.cursor()
        for target in range(0, 200, 7):
            cur.seek(target)
            expect = next(iter(tree.seek(target)), None)
            assert cur.peek() == expect

    def test_far_seek_redescends(self):
        tree = build([(k, k) for k in range(5000)], order=4)
        cur = tree.cursor()
        cur.seek(1)
        cur.seek(4998)  # beyond _MAX_LEAF_SKIPS leaf hops
        assert cur.peek() == (4998, 4998)


def bulk(entries, order=8):
    """Bottom-up build from ``(key, payload)`` pairs already in key order."""
    tree = BPlusTree(order=order)
    tree.bulk_build([k for k, _ in entries], [v for _, v in entries])
    return tree


class TestBulkBuild:
    def test_empty_input_leaves_an_empty_tree(self):
        tree = bulk([])
        assert len(tree) == 0 and tree.height == 1
        tree.insert(3, "x")
        assert list(tree.scan_all()) == [(3, "x")]
        tree.validate()

    def test_needs_an_empty_tree(self):
        tree = build([(1, 1)])
        with pytest.raises(ValueError):
            tree.bulk_build([2], [2])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 10, 27, 28, 1000])
    def test_every_size_is_valid_and_complete(self, n):
        entries = [(k, k * 10) for k in range(n)]
        tree = bulk(entries, order=4)
        tree.validate()
        assert len(tree) == n
        assert list(tree.scan_all()) == entries
        assert tree.min_key() == 0 and tree.max_key() == n - 1

    def test_nodes_are_three_quarters_full_and_shallower(self):
        entries = [(k, k) for k in range(10_000)]
        built = bulk(entries, order=64)
        inserted = build(entries, order=64)
        leaf = built._first_leaf
        fills = []
        while leaf is not None:
            fills.append(len(leaf.keys))
            leaf = leaf.next
        assert max(fills) == 48 and min(fills) >= 47
        assert built.height <= inserted.height

    def test_duplicates_straddling_leaves_are_all_found(self):
        # order 4 -> 3 entries per leaf: thirty 5s span ten leaves, and
        # the separators between them all equal 5.
        entries = [(3, "y")] + [(5, i) for i in range(30)] + [(7, "x")]
        tree = bulk(entries, order=4)
        tree.validate()
        assert [p for _, p in tree.seek(5)] == list(range(30)) + ["x"]
        assert list(tree.scan_ranges([(5, 5, True, True)])) == entries[1:31]
        assert tree.count_range(5, 5) == 30
        assert tree.count_range(3, 7, lo_inclusive=False) == 31
        for i in range(0, 30, 4):
            assert tree.remove(5, i)
        tree.insert(5, "new")
        tree.insert(4, "gap")
        tree.validate()
        assert tree.count_range(5, 5) == 30 - 8 + 1


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=40), min_size=0, max_size=160
    ),
    order=st.integers(min_value=4, max_value=12),
    probes=st.lists(
        st.integers(min_value=-2, max_value=42), min_size=1, max_size=6
    ),
    suffix=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
        max_size=80,
    ),
)
def test_property_bulk_build_equals_one_by_one(keys, order, probes, suffix):
    """Bottom-up build ≡ inserting the same sorted entries one by one,
    on every read, and both stay equivalent under later mutation."""
    entries = [(k, i) for i, k in enumerate(sorted(keys))]
    built = bulk(entries, order=order)
    inserted = build(entries, order=order)
    built.validate()
    assert len(built) == len(inserted)
    assert list(built.scan_all()) == list(inserted.scan_all()) == entries
    assert built.min_key() == inserted.min_key()
    assert built.max_key() == inserted.max_key()
    for probe in probes:
        assert list(built.seek(probe)) == list(inserted.seek(probe))
    cuts = sorted(set(probes))
    ranges = [
        (lo, hi, lo % 2 == 0, hi % 2 == 1) for lo, hi in zip(cuts, cuts[1:])
    ][::2]
    assert list(built.scan_ranges(ranges)) == list(inserted.scan_ranges(ranges))
    for lo, hi, lo_inc, hi_inc in ranges:
        assert built.count_range(lo, hi, lo_inc, hi_inc) == inserted.count_range(
            lo, hi, lo_inc, hi_inc
        )
    # Equal keys may land on either side of an equal separator, so the
    # two trees agree as multisets of entries, not on tie order.
    live = list(entries)
    for step, (is_insert, key) in enumerate(suffix):
        if is_insert:
            payload = "s%d" % step
            built.insert(key, payload)
            inserted.insert(key, payload)
            live.append((key, payload))
            continue
        victim = next((e for e in live if e[0] == key), None)
        payload = victim[1] if victim else "absent"
        assert built.remove(key, payload) == (victim is not None)
        assert inserted.remove(key, payload) == (victim is not None)
        if victim:
            live.remove(victim)
    built.validate()
    inserted.validate()
    expected = sorted(live, key=lambda e: (e[0], str(e[1])))
    for tree in (built, inserted):
        got = list(tree.scan_all())
        assert [k for k, _ in got] == [k for k, _ in expected]
        assert sorted(got, key=lambda e: (e[0], str(e[1]))) == expected
    for probe in probes:
        assert [k for k, _ in built.seek(probe)] == [
            k for k, _ in inserted.seek(probe)
        ]


class TestValidate:
    """``validate`` must see a mis-built tree, not only a mis-ordered
    leaf chain."""

    def tree(self):
        tree = build([(k, k) for k in range(200)], order=4)
        tree.validate()
        return tree

    def test_corrupt_separator_is_caught(self):
        tree = self.tree()
        root = tree._root
        # Still one separator per child boundary and the leaf chain is
        # untouched — all the old check looked at — but descents for
        # keys below the true separator now go to the wrong subtree:
        # an entry that is there cannot be removed.
        present = root.keys[0] - 1
        root.keys[0] = -1
        assert (present, present) in list(tree.scan_all())
        assert not tree.remove(present, present)
        with pytest.raises(AssertionError, match="separator"):
            tree.validate()

    def test_separator_above_its_right_subtree_is_caught(self):
        tree = self.tree()
        tree._root.keys[-1] = 10_000
        with pytest.raises(AssertionError, match="separator"):
            tree.validate()

    def test_equal_keys_left_of_a_separator_are_legal(self):
        tree = build([(7, i) for i in range(40)], order=4)
        tree.validate()

    def test_leaf_off_the_chain_is_caught(self):
        tree = self.tree()
        first = tree._first_leaf
        # Unlink the second leaf: its keys vanish from every scan.
        first.next = first.next.next
        first.next.prev = first
        with pytest.raises(AssertionError):
            tree.validate()

    def test_broken_prev_pointer_is_caught(self):
        tree = self.tree()
        tree._first_leaf.next.prev = None
        with pytest.raises(AssertionError, match="prev"):
            tree.validate()

    def test_wrong_height_is_caught(self):
        tree = self.tree()
        tree._height += 1
        with pytest.raises(AssertionError, match="height"):
            tree.validate()

    def test_wrong_size_is_caught(self):
        tree = self.tree()
        tree._size += 1
        with pytest.raises(AssertionError, match="size"):
            tree.validate()

    def test_emptied_leaves_are_legal(self):
        tree = self.tree()
        for k in range(40, 120):
            assert tree.remove(k, k)
        tree.validate()
