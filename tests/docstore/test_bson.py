"""Tests for BSON primitives: ObjectId, ordering, sizing, key bytes."""

import datetime as dt
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.docstore import bson
from repro.docstore.bson import (
    MAXKEY,
    MINKEY,
    ObjectId,
    bson_document_size,
    compare,
    key_bytes,
    sort_key,
    type_rank,
)

UTC = dt.timezone.utc


class TestObjectId:
    def test_is_12_bytes(self):
        assert len(ObjectId().binary) == 12

    def test_timestamp_prefix(self):
        oid = ObjectId(timestamp=1_538_352_000)  # 2018-10-01
        assert oid.generation_time == dt.datetime(2018, 10, 1, tzinfo=UTC)

    def test_counter_increments(self):
        a = ObjectId(timestamp=0, random_bytes=b"\x00" * 5)
        b = ObjectId(timestamp=0, random_bytes=b"\x00" * 5)
        ca = int.from_bytes(a.binary[9:], "big")
        cb = int.from_bytes(b.binary[9:], "big")
        assert cb == (ca + 1) % 2**24

    def test_deterministic_construction(self):
        a = ObjectId(timestamp=100, random_bytes=b"abcde", counter=7)
        b = ObjectId(timestamp=100, random_bytes=b"abcde", counter=7)
        assert a == b
        assert hash(a) == hash(b)

    def test_ordering_follows_bytes(self):
        early = ObjectId(timestamp=100, random_bytes=b"abcde", counter=1)
        late = ObjectId(timestamp=200, random_bytes=b"abcde", counter=0)
        assert early < late

    def test_hex_roundtrip(self):
        oid = ObjectId(timestamp=100, random_bytes=b"abcde", counter=7)
        assert ObjectId.from_hex(str(oid)) == oid

    def test_from_bytes_validates_length(self):
        with pytest.raises(ValueError):
            ObjectId.from_bytes(b"short")

    def test_bad_random_length(self):
        with pytest.raises(ValueError):
            ObjectId(timestamp=0, random_bytes=b"abc")

    def test_shared_prefix_when_generated_together(self):
        # The property Fig. 14 depends on: ids minted within the same
        # second share at least the 4-byte timestamp + 5-byte random.
        a = ObjectId(timestamp=1000.2, random_bytes=b"abcde")
        b = ObjectId(timestamp=1000.9, random_bytes=b"abcde")
        assert a.binary[:9] == b.binary[:9]


class TestTypeOrdering:
    def test_bracket_order(self):
        # MinKey < null < number < string < object < array < binary <
        # ObjectId < bool < date < MaxKey.
        values = [
            MINKEY,
            None,
            3,
            "abc",
            {"a": 1},
            [1, 2],
            b"\x01",
            ObjectId(timestamp=0, random_bytes=b"abcde", counter=0),
            True,
            dt.datetime(2020, 1, 1, tzinfo=UTC),
            MAXKEY,
        ]
        ranks = [type_rank(v) for v in values]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_int_and_float_share_bracket(self):
        assert type_rank(3) == type_rank(3.5)
        assert compare(3, 3.0) == 0
        assert compare(2, 2.5) == -1

    def test_bool_not_number(self):
        assert type_rank(True) != type_rank(1)

    def test_cross_type_comparisons(self):
        assert compare(99999, "a") == -1  # any number < any string
        assert compare("zzz", dt.datetime(1970, 1, 1, tzinfo=UTC)) == -1

    def test_minkey_maxkey_extremes(self):
        for v in (None, -1e308, "", b"", [], {}, False):
            assert compare(MINKEY, v) == -1
            assert compare(MAXKEY, v) == 1

    def test_date_comparison(self):
        early = dt.datetime(2018, 7, 1, tzinfo=UTC)
        late = dt.datetime(2018, 8, 1, tzinfo=UTC)
        assert compare(early, late) == -1

    def test_naive_datetime_treated_as_utc(self):
        naive = dt.datetime(2018, 7, 1)
        aware = dt.datetime(2018, 7, 1, tzinfo=UTC)
        assert compare(naive, aware) == 0

    def test_nan_has_one_place_below_every_number(self):
        nan = float("nan")
        assert bson.sort_key(nan) == bson.sort_key(float("nan"))
        assert bson.compare(nan, nan) == 0
        assert bson.compare(nan, float("-inf")) == -1
        assert bson.compare(None, nan) == -1  # still inside its bracket
        ordered = sorted([1, nan, float("-inf"), -3.5], key=bson.sort_key)
        assert ordered[1:] == [float("-inf"), -3.5, 1]
        assert bson.canonical_key_bytes(
            [bson.sort_key(nan)]
        ) < bson.canonical_key_bytes([bson.sort_key(float("-inf"))])

    def test_array_and_object_ordering(self):
        assert compare([1, 2], [1, 3]) == -1
        assert compare({"a": 1}, {"a": 2}) == -1

    def test_unorderable_type_raises(self):
        class Strange:
            pass

        with pytest.raises(TypeError):
            sort_key(Strange())


class TestDocumentSize:
    def test_empty_document(self):
        # 4-byte length + trailing NUL.
        assert bson_document_size({}) == 5

    def test_int32_element(self):
        # type byte + "a\0" + int32 = 1 + 2 + 4 = 7; total 5 + 7.
        assert bson_document_size({"a": 1}) == 12

    def test_int64_for_large_values(self):
        small = bson_document_size({"a": 1})
        large = bson_document_size({"a": 2**40})
        assert large == small + 4

    def test_string_element(self):
        # "ab" → 4-byte len + 2 bytes + NUL = 7 value bytes.
        assert bson_document_size({"a": "ab"}) == 5 + 1 + 2 + 7

    def test_nested_document_counted(self):
        flat = bson_document_size({"a": 1})
        nested = bson_document_size({"w": {"a": 1}})
        assert nested == 5 + 1 + 2 + flat

    def test_array_as_indexed_document(self):
        assert bson_document_size({"a": [1, 2]}) == bson_document_size(
            {"a": {"0": 1, "1": 2}}
        )

    def test_objectid_is_12_value_bytes(self):
        oid = ObjectId(timestamp=0, random_bytes=b"abcde", counter=0)
        assert bson_document_size({"_id": oid}) == 5 + 1 + 4 + 12

    def test_geojson_point_size_realistic(self):
        doc = {"location": {"type": "Point", "coordinates": [23.7, 37.9]}}
        size = bson_document_size(doc)
        assert 50 < size < 100


class _IntSubclass(int):
    pass


class _Tuple(tuple):
    pass


def spec_document_size(document):
    """BSON size read straight off the specification (bsonspec.org).

    ``document ::= int32 e_list "\\x00"``; ``element ::= type-byte
    e_name value`` with ``e_name`` a cstring.  Written without looking
    at the implementation's dispatch: subclasses size as their base
    type, any mapping is a document, any other sequence an array — the
    document of its elements keyed "0", "1", ...
    """
    total = 4 + 1
    for name, value in document.items():
        total += 1 + len(name.encode("utf-8")) + 1
        if value is None or value is MINKEY or value is MAXKEY:
            total += 0
        elif isinstance(value, bool):
            total += 1
        elif isinstance(value, int):
            total += 4 if -(2**31) <= value <= 2**31 - 1 else 8
        elif isinstance(value, (float, dt.datetime)):
            total += 8
        elif isinstance(value, str):
            total += 4 + len(value.encode("utf-8")) + 1
        elif isinstance(value, ObjectId):
            total += 12
        elif isinstance(value, bytes):
            total += 4 + 1 + len(value)
        elif isinstance(value, dict) or hasattr(value, "items"):
            total += spec_document_size(value)
        else:
            total += spec_document_size(
                {str(i): element for i, element in enumerate(value)}
            )
    return total


_SIZED_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-5, max_value=5).map(_IntSubclass),
    st.sampled_from([2**31 - 1, 2**31, -(2**31), -(2**31) - 1]),
    st.floats(allow_nan=True),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.datetimes(),
    st.builds(
        ObjectId,
        timestamp=st.integers(min_value=0, max_value=2**31),
        random_bytes=st.binary(min_size=5, max_size=5),
        counter=st.integers(min_value=0, max_value=2**24 - 1),
    ),
    st.sampled_from([MINKEY, MAXKEY]),
)

_SIZED_VALUES = st.recursive(
    _SIZED_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(_Tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=3).map(
            types.MappingProxyType
        ),
    ),
    max_leaves=12,
)


@given(document=st.dictionaries(st.text(max_size=6), _SIZED_VALUES, max_size=6))
def test_document_size_matches_the_specification(document):
    assert bson_document_size(document) == spec_document_size(document)


@st.composite
def scalar_values(draw):
    return draw(
        st.one_of(
            st.integers(min_value=-(2**52), max_value=2**52),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=12),
            st.datetimes(
                min_value=dt.datetime(1971, 1, 1),
                max_value=dt.datetime(2100, 1, 1),
            ).map(lambda d: d.replace(tzinfo=UTC)),
            st.booleans(),
            st.none(),
        )
    )


class TestKeyBytes:
    @given(a=scalar_values(), b=scalar_values())
    def test_order_preserving(self, a, b):
        # key_bytes must sort exactly like sort_key — the property the
        # prefix-compression size model relies on.
        ka, kb = key_bytes([a]), key_bytes([b])
        ca, cb = sort_key(a), sort_key(b)
        if ca < cb:
            assert ka < kb
        elif ca > cb:
            assert ka > kb
        else:
            assert ka == kb

    def test_compound_keys_concatenate(self):
        single = key_bytes([5])
        double = key_bytes([5, "x"])
        assert double.startswith(single)

    def test_shared_prefix_for_close_dates(self):
        t1 = dt.datetime(2018, 7, 1, 12, 0, tzinfo=UTC)
        t2 = dt.datetime(2018, 7, 1, 12, 1, tzinfo=UTC)
        t3 = dt.datetime(2024, 1, 1, tzinfo=UTC)
        k1, k2, k3 = key_bytes([t1]), key_bytes([t2]), key_bytes([t3])

        def common(a, b):
            n = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                n += 1
            return n

        assert common(k1, k2) > common(k1, k3)
