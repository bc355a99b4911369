"""Unit tests for the reference index-bounds checker."""

from repro.docstore import bson
from repro.docstore.index import SCAN_BOTTOM, SCAN_TOP
from repro.docstore.planner import Interval
from repro.reference import _BoundsChecker


def iv(lo, hi, loi=True, hii=True):
    return Interval(bson.sort_key(lo), bson.sort_key(hi), loi, hii)


def key(*values, rid=0):
    return tuple(bson.sort_key(v) for v in values) + ((50, rid),)


class TestSingleField:
    def test_match_inside(self):
        checker = _BoundsChecker([[iv(5, 10)]])
        assert checker.check(key(7))[0] == "match"
        assert checker.check(key(5))[0] == "match"
        assert checker.check(key(10))[0] == "match"

    def test_gap_seeks_to_next_interval(self):
        checker = _BoundsChecker([[iv(1, 3), iv(8, 9)]])
        verdict, target = checker.check(key(5))
        assert verdict == "seek"
        assert target[0] == bson.sort_key(8)

    def test_above_all_is_done(self):
        checker = _BoundsChecker([[iv(1, 3)]])
        assert checker.check(key(99))[0] == "done"

    def test_exclusive_lower_bound(self):
        checker = _BoundsChecker([[iv(5, 10, loi=False)]])
        verdict, target = checker.check(key(5))
        assert verdict == "seek"
        assert target[-1] == SCAN_TOP  # skip all keys equal to 5

    def test_exclusive_upper_bound(self):
        checker = _BoundsChecker([[iv(5, 10, hii=False)]])
        assert checker.check(key(9))[0] == "match"
        assert checker.check(key(10))[0] != "match"

    def test_start_key(self):
        checker = _BoundsChecker([[iv(5, 10)], [iv(1, 2)]])
        assert checker.start_key() == (bson.sort_key(5), bson.sort_key(1))


class TestCompound:
    def test_second_field_gap(self):
        checker = _BoundsChecker([[iv(1, 9)], [iv(10, 20)]])
        verdict, target = checker.check(key(5, 3))
        assert verdict == "seek"
        # Same first value, second jumps to 10.
        assert target == (bson.sort_key(5), bson.sort_key(10))

    def test_second_field_exhausted_advances_first(self):
        checker = _BoundsChecker([[iv(1, 9)], [iv(10, 20)]])
        verdict, target = checker.check(key(5, 99))
        assert verdict == "seek"
        # Skip every remaining key with first field == 5.
        assert target == (bson.sort_key(5), SCAN_TOP)

    def test_full_match(self):
        checker = _BoundsChecker([[iv(1, 9)], [iv(10, 20)]])
        assert checker.check(key(5, 15))[0] == "match"

    def test_seek_targets_progress(self):
        # Every seek target must be strictly greater than the key it
        # was computed from — the executor's progress guarantee.
        checker = _BoundsChecker([[iv(2, 4), iv(8, 9)], [iv(5, 6)]])
        probes = [key(a, b) for a in range(12) for b in range(12)]
        for probe in probes:
            verdict, target = checker.check(probe)
            if verdict == "seek":
                assert target > probe[: len(target)] or target > probe

    def test_unbounded_suffix_fields_ignored(self):
        # Keys longer than the bounds (unconstrained trailing fields +
        # rid) are fine; only the bounded prefix is checked.
        checker = _BoundsChecker([[iv(1, 9)]])
        assert checker.check(key(5, "anything", rid=7))[0] == "match"
