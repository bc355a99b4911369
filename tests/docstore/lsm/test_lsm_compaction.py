"""Size-tiered picking and the k-way merge."""

from repro.docstore.lsm.compaction import merge_runs, pick_compaction
from repro.docstore.lsm.sstable import SSTable, write_sstable


def make_run(tmp_path, name, data):
    path = str(tmp_path / name)
    write_sstable(path, sorted(data))
    return SSTable(path)


class TestPickCompaction:
    def test_too_few_runs_is_none(self, tmp_path):
        runs = [
            make_run(tmp_path, "r%d.sst" % i, [(b"k", b"v")])
            for i in range(3)
        ]
        assert pick_compaction(runs, min_runs=4) is None
        for run in runs:
            run.close()

    def test_same_band_runs_are_picked(self, tmp_path):
        runs = [
            make_run(
                tmp_path,
                "r%d.sst" % i,
                [(b"key-%d-%d" % (i, j), b"v" * 20) for j in range(10)],
            )
            for i in range(4)
        ]
        picked = pick_compaction(runs, min_runs=4)
        assert picked == [0, 1, 2, 3]
        for run in runs:
            run.close()

    def test_band_mismatch_is_not_picked(self, tmp_path):
        small = [
            make_run(tmp_path, "s%d.sst" % i, [(b"k%d" % i, b"v")])
            for i in range(2)
        ]
        big = [
            make_run(
                tmp_path,
                "b%d.sst" % i,
                [(b"key-%d-%d" % (i, j), b"v" * 400) for j in range(50)],
            )
            for i in range(2)
        ]
        assert pick_compaction(small + big, min_runs=3) is None
        for run in small + big:
            run.close()

    def test_only_age_adjacent_runs_are_picked(self, tmp_path):
        # A big run sitting between small ones must not be skipped
        # over: the merged run would land *older* than it, and a
        # dropped tombstone would resurrect what the big run holds.
        def small(name):
            return make_run(tmp_path, name, [(name.encode(), b"v")])

        big = make_run(
            tmp_path,
            "big.sst",
            [(b"key-%d" % j, b"v" * 400) for j in range(50)],
        )
        runs = [small("s0.sst"), big] + [
            small("s%d.sst" % i) for i in range(1, 4)
        ]
        assert pick_compaction(runs, min_runs=4) is None
        assert pick_compaction(runs, min_runs=3) == [2, 3, 4]
        for run in runs:
            run.close()


class TestMergeRuns:
    def test_newest_version_wins(self, tmp_path):
        old = make_run(tmp_path, "old.sst", [(b"a", b"1"), (b"b", b"1")])
        new = make_run(tmp_path, "new.sst", [(b"b", b"2"), (b"c", b"2")])
        merged = list(merge_runs([old, new], drop_tombstones=False))
        assert merged == [(b"a", b"1"), (b"b", b"2"), (b"c", b"2")]
        old.close()
        new.close()

    def test_tombstones_kept_when_not_oldest(self, tmp_path):
        old = make_run(tmp_path, "old.sst", [(b"a", b"1")])
        new = make_run(tmp_path, "new.sst", [(b"a", None)])
        merged = list(merge_runs([old, new], drop_tombstones=False))
        assert merged == [(b"a", None)]
        old.close()
        new.close()

    def test_tombstones_dropped_when_oldest_included(self, tmp_path):
        old = make_run(tmp_path, "old.sst", [(b"a", b"1"), (b"b", b"1")])
        new = make_run(tmp_path, "new.sst", [(b"a", None)])
        merged = list(merge_runs([old, new], drop_tombstones=True))
        assert merged == [(b"b", b"1")]
        old.close()
        new.close()

    def test_three_way_merge_is_sorted_and_deduplicated(self, tmp_path):
        runs = [
            make_run(
                tmp_path,
                "r%d.sst" % age,
                [(b"key-%03d" % k, b"run%d" % age) for k in range(age, 30, 3)],
            )
            for age in range(3)
        ]
        merged = list(merge_runs(runs, drop_tombstones=False))
        keys = [k for k, _ in merged]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        # key-002 exists only in the newest run (age 2).
        assert dict(merged)[b"key-002"] == b"run2"
        for run in runs:
            run.close()
