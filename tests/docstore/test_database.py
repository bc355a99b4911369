"""Tests for the Database namespace."""

import pytest

from repro.docstore.database import Database
from repro.errors import DocumentStoreError


class TestDatabase:
    def test_lazy_collection_creation(self):
        db = Database("d")
        col = db.collection("traces")
        assert col.name == "traces"
        assert db.collection("traces") is col
        assert db["traces"] is col

    def test_list_collections(self):
        db = Database("d")
        db.collection("a")
        db.collection("b")
        assert db.list_collections() == ["a", "b"]

    def test_drop_collection(self):
        db = Database("d")
        db.collection("a")
        db.drop_collection("a")
        assert db.list_collections() == []

    def test_drop_missing_rejected(self):
        with pytest.raises(DocumentStoreError):
            Database("d").drop_collection("nope")

    def test_shared_storage_model(self):
        from repro.docstore.storage import StorageModel

        model = StorageModel(block_compression=0.9)
        db = Database("d", storage_model=model)
        assert db.collection("a").storage_model is model

    def test_stats(self):
        db = Database("d")
        db.collection("a").insert_many({"i": i} for i in range(5))
        db.collection("b").insert_one({"x": 1})
        stats = db.stats()
        assert stats["collections"] == 2
        assert stats["objects"] == 6
        assert stats["dataSize"] > 0
        assert stats["totalIndexSize"] > 0


class TestCursorEdgeCases:
    def test_empty_cursor(self):
        from repro.docstore.cursor import Cursor

        cursor = Cursor([])
        assert cursor.to_list() == []
        assert len(cursor) == 0

    def test_negative_modifiers_rejected(self):
        from repro.docstore.cursor import Cursor

        with pytest.raises(ValueError):
            Cursor([]).skip(-1)
        with pytest.raises(ValueError):
            Cursor([]).limit(-1)

    def test_sort_missing_fields_first_ascending(self):
        from repro.docstore.cursor import Cursor

        docs = [{"a": 2}, {"b": 1}, {"a": 1}]
        out = Cursor(docs).sort({"a": 1}).to_list()
        # Missing sorts as null, before numbers (BSON bracket order).
        assert out[0] == {"b": 1}
        assert [d.get("a") for d in out[1:]] == [1, 2]
