"""Tests for index definitions and key extraction."""

import datetime as dt

import pytest

from repro.docstore.index import (
    GEOSPHERE,
    HASHED,
    Index,
    IndexDefinition,
    IndexField,
    hashed_value,
)
from repro.errors import DuplicateKeyError, IndexError_

UTC = dt.timezone.utc


def make_doc(lon=23.7, lat=37.9, date=None, **extra):
    doc = {
        "location": {"type": "Point", "coordinates": [lon, lat]},
        "date": date or dt.datetime(2018, 8, 1, tzinfo=UTC),
    }
    doc.update(extra)
    return doc


class TestDefinition:
    def test_from_spec_list(self):
        d = IndexDefinition.from_spec([("location", "2dsphere"), ("date", 1)])
        assert d.paths == ("location", "date")
        assert [f.kind for f in d.fields] == [GEOSPHERE, 1]

    def test_from_spec_mapping(self):
        d = IndexDefinition.from_spec({"a": 1, "b": -1})
        assert d.paths == ("a", "b")

    def test_generated_name(self):
        d = IndexDefinition.from_spec([("a", 1), ("b", 1)])
        assert d.name == "a_1_b_1"

    def test_explicit_name(self):
        d = IndexDefinition.from_spec([("a", 1)], name="my_index")
        assert d.name == "my_index"

    def test_rejects_empty(self):
        with pytest.raises(IndexError_):
            IndexDefinition(fields=())

    def test_rejects_too_many_fields(self):
        # MongoDB caps compound indexes at 32 fields (Section 3.1).
        fields = tuple(IndexField("f%d" % i, 1) for i in range(33))
        with pytest.raises(IndexError_):
            IndexDefinition(fields=fields)

    def test_rejects_bad_kind(self):
        with pytest.raises(IndexError_):
            IndexField("a", 2)


class TestExtraction:
    def test_plain_field(self):
        idx = Index(IndexDefinition.from_spec([("date", 1)]))
        doc = make_doc()
        assert idx.extract_raw(doc) == (doc["date"],)

    def test_missing_field_indexes_null(self):
        idx = Index(IndexDefinition.from_spec([("ghost", 1)]))
        assert idx.extract_raw({"a": 1}) == (None,)

    def test_2dsphere_is_26bit_geohash(self):
        idx = Index(
            IndexDefinition.from_spec([("location", "2dsphere")])
        )
        (value,) = idx.extract_raw(make_doc())
        assert isinstance(value, int)
        assert 0 <= value < 2**26

    def test_2dsphere_custom_bits(self):
        idx = Index(
            IndexDefinition.from_spec(
                [("location", "2dsphere")], geohash_bits=32
            )
        )
        (value,) = idx.extract_raw(make_doc())
        assert 0 <= value < 2**32

    def test_2dsphere_non_point_rejected(self):
        idx = Index(IndexDefinition.from_spec([("location", "2dsphere")]))
        with pytest.raises(IndexError_):
            idx.extract_raw({"location": "garbage"})

    def test_2dsphere_missing_gives_null(self):
        idx = Index(IndexDefinition.from_spec([("location", "2dsphere")]))
        assert idx.extract_raw({"a": 1}) == (None,)

    def test_hashed_field(self):
        idx = Index(IndexDefinition.from_spec([("vehicle", "hashed")]))
        (value,) = idx.extract_raw({"vehicle": 7})
        assert value == hashed_value(7)

    def test_hashed_deterministic(self):
        assert hashed_value("abc") == hashed_value("abc")
        assert hashed_value("abc") != hashed_value("abd")
        assert 0 <= hashed_value("abc") < 2**63

    def test_compound_extraction(self):
        idx = Index(
            IndexDefinition.from_spec([("location", "2dsphere"), ("date", 1)])
        )
        doc = make_doc()
        raw = idx.extract_raw(doc)
        assert len(raw) == 2
        assert raw[1] == doc["date"]


class TestMaintenance:
    def test_insert_and_len(self):
        idx = Index(IndexDefinition.from_spec([("date", 1)]))
        for i in range(10):
            idx.insert_document(i, make_doc(date=dt.datetime(2018, 8, i + 1, tzinfo=UTC)))
        assert len(idx) == 10

    def test_remove(self):
        idx = Index(IndexDefinition.from_spec([("date", 1)]))
        doc = make_doc()
        idx.insert_document(1, doc)
        idx.remove_document(1, doc)
        assert len(idx) == 0

    def test_unique_rejects_duplicates(self):
        idx = Index(
            IndexDefinition.from_spec([("_id", 1)], name="_id_", unique=True)
        )
        idx.insert_document(1, {"_id": 5})
        with pytest.raises(DuplicateKeyError):
            idx.insert_document(2, {"_id": 5})

    def test_unique_allows_after_remove(self):
        idx = Index(
            IndexDefinition.from_spec([("_id", 1)], unique=True)
        )
        idx.insert_document(1, {"_id": 5})
        idx.remove_document(1, {"_id": 5})
        idx.insert_document(2, {"_id": 5})
        assert len(idx) == 1

    def test_duplicate_keys_allowed_when_not_unique(self):
        idx = Index(IndexDefinition.from_spec([("v", 1)]))
        idx.insert_document(1, {"v": 5})
        idx.insert_document(2, {"v": 5})
        assert len(idx) == 2

    def test_iter_storage_keys_sorted(self):
        idx = Index(IndexDefinition.from_spec([("v", 1)]))
        for rid, v in enumerate((5, 1, 3)):
            idx.insert_document(rid, {"v": v})
        keys = list(idx.iter_storage_keys())
        assert keys == sorted(keys)
        assert len(keys) == 3


class TestFieldStats:
    def test_numeric_stats_tracked(self):
        idx = Index(IndexDefinition.from_spec([("v", 1)]))
        for rid, v in enumerate((5, 1, 9)):
            idx.insert_document(rid, {"v": v})
        assert idx.field_stats(0) == (1.0, 9.0)

    def test_date_stats_tracked(self):
        idx = Index(IndexDefinition.from_spec([("date", 1)]))
        t1 = dt.datetime(2018, 7, 1, tzinfo=UTC)
        t2 = dt.datetime(2018, 9, 1, tzinfo=UTC)
        idx.insert_document(0, {"date": t1})
        idx.insert_document(1, {"date": t2})
        lo, hi = idx.field_stats(0)
        assert lo == t1.timestamp()
        assert hi == t2.timestamp()

    def test_non_numeric_stats_none(self):
        idx = Index(IndexDefinition.from_spec([("name", 1)]))
        idx.insert_document(0, {"name": "abc"})
        assert idx.field_stats(0) is None


class TestBuild:
    """``Index.build`` leaves what ``insert_document`` per pair leaves."""

    SPECS = [
        ([("v", 1)], False),
        ([("_id", 1)], True),
        ([("tags", 1), ("v", 1)], False),  # multikey on tags
        ([("location", "2dsphere"), ("date", 1)], False),
        ([("v", "hashed")], False),
    ]

    def records(self):
        out = []
        for rid in range(120):
            doc = make_doc(
                lon=23.0 + (rid * 7 % 50) / 50,
                lat=37.5 + (rid * 3 % 40) / 40,
                date=dt.datetime(2018, 8, 1 + rid % 20, tzinfo=UTC),
                _id=rid,
                v=rid * 13 % 17,
                tags=["t%d" % (rid % 4), "t%d" % (rid % 3)],
            )
            out.append((rid * 2, doc))  # rids need not be dense
        return out

    @pytest.mark.parametrize("spec,unique", SPECS)
    def test_equals_one_by_one_insertion(self, spec, unique):
        definition = IndexDefinition.from_spec(spec, unique=unique)
        built = Index(definition, order=8)
        built.build(self.records())
        inserted = Index(definition, order=8)
        for rid, doc in self.records():
            inserted.insert_document(rid, doc)
        built.tree.validate()
        assert list(built.tree.scan_all()) == list(inserted.tree.scan_all())
        assert built._raw_keys == inserted._raw_keys
        assert built._seen == inserted._seen
        assert built._field_stats == inserted._field_stats
        assert built.is_multikey() == inserted.is_multikey()
        # ... and it is an ordinary index afterwards.
        rid, doc = self.records()[5]
        built.remove_document(rid, doc)
        inserted.remove_document(rid, doc)
        built.insert_document(999, dict(doc, _id=999))
        inserted.insert_document(999, dict(doc, _id=999))
        built.tree.validate()
        assert list(built.tree.scan_all()) == list(inserted.tree.scan_all())

    def test_duplicate_in_unique_index_raises(self):
        idx = Index(IndexDefinition.from_spec([("v", 1)], unique=True))
        with pytest.raises(DuplicateKeyError):
            idx.build([(0, {"v": 1}), (1, {"v": 2}), (2, {"v": 1})])

    def test_empty_build(self):
        idx = Index(IndexDefinition.from_spec([("v", 1)]))
        idx.build([])
        assert len(idx) == 0
        idx.insert_document(0, {"v": 1})
        assert len(idx) == 1
