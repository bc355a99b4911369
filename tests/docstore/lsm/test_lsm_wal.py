"""WAL framing, replay semantics, and group commit."""

import os
import zlib

import pytest

from repro.docstore.lsm.wal import (
    OP_DELETE,
    OP_PUT,
    SYNC_ALWAYS,
    SYNC_OFF,
    WalRecord,
    WriteAheadLog,
    frame,
    iter_wal_records,
)
from repro.errors import DocumentStoreError


def records(n):
    return [
        WalRecord(OP_PUT, b"key-%03d" % i, b"value-%03d" % i)
        for i in range(n)
    ]


class TestFraming:
    def test_record_roundtrip(self):
        for rec in (
            WalRecord(OP_PUT, b"k", b"v"),
            WalRecord(OP_PUT, b"k", b""),
            WalRecord(OP_DELETE, b"k"),
        ):
            assert WalRecord.decode(rec.encode()) == rec

    def test_frame_carries_crc(self):
        payload = WalRecord(OP_PUT, b"a", b"b").encode()
        framed = frame(payload)
        assert len(framed) == 8 + len(payload)
        assert zlib.crc32(payload) == int.from_bytes(framed[4:8], "little")


class TestReplay:
    def test_full_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=SYNC_OFF)
        wal.append(records(5))
        wal.close()
        assert list(iter_wal_records(path)) == records(5)

    def test_torn_final_frame_is_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=SYNC_OFF)
        wal.append(records(5))
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        assert list(iter_wal_records(path)) == records(4)

    def test_corrupt_frame_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=SYNC_OFF)
        wal.append(records(5))
        wal.close()
        # Flip one payload byte in the middle record.
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        replayed = list(iter_wal_records(path))
        assert len(replayed) < 5
        for got, expected in zip(replayed, records(5)):
            assert got == expected

    def test_empty_file_replays_nothing(self, tmp_path):
        path = str(tmp_path / "wal.log")
        open(path, "wb").close()
        assert list(iter_wal_records(path)) == []


class TestGroupCommit:
    def test_always_policy_is_durable_at_return(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync=SYNC_ALWAYS)
        lsn = wal.append(records(3))
        assert lsn == 2
        assert wal._durable_lsn >= lsn
        wal.close()

    def test_lsns_are_contiguous_across_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync=SYNC_OFF)
        assert wal.append(records(2)) == 1
        assert wal.append(records(3)) == 4
        assert wal._written_lsn == 4
        wal.close()

    def test_close_makes_everything_durable(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=SYNC_OFF)
        wal.append(records(7))
        wal.close()
        assert len(list(iter_wal_records(path))) == 7

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync=SYNC_OFF)
        wal.close()
        with pytest.raises(DocumentStoreError):
            wal.append(records(1))

    def test_unknown_policy_raises(self, tmp_path):
        with pytest.raises(DocumentStoreError):
            WriteAheadLog(str(tmp_path / "wal.log"), sync="yolo")

    def test_delete_removes_the_file(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=SYNC_OFF)
        wal.append(records(1))
        wal.close()
        wal.delete()
        assert not os.path.exists(path)
