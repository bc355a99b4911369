"""Tests for dotted-path document helpers, copies and stored shapes."""

import collections
import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import FleetConfig, FleetGenerator
from repro.docstore.bson import ObjectId
from repro.docstore.document import (
    MISSING,
    copy_with_shape,
    deep_copy_document,
    get_path,
    has_path,
    iter_paths,
    set_path,
    shape_of,
    unset_path,
)

DOC = {
    "a": 1,
    "b": {"c": 2, "d": {"e": 3}},
    "arr": [10, {"x": 20}],
    "nul": None,
}


class TestGetPath:
    def test_top_level(self):
        assert get_path(DOC, "a") == 1

    def test_nested(self):
        assert get_path(DOC, "b.c") == 2
        assert get_path(DOC, "b.d.e") == 3

    def test_missing_returns_sentinel(self):
        assert get_path(DOC, "zzz") is MISSING
        assert get_path(DOC, "b.zzz") is MISSING
        assert get_path(DOC, "a.b") is MISSING  # scalar has no children

    def test_none_is_not_missing(self):
        assert get_path(DOC, "nul") is None
        assert get_path(DOC, "nul") is not MISSING

    def test_array_index(self):
        assert get_path(DOC, "arr.0") == 10
        assert get_path(DOC, "arr.1.x") == 20
        assert get_path(DOC, "arr.5") is MISSING
        assert get_path(DOC, "arr.notanum") is MISSING

    def test_geojson_coordinates(self):
        doc = {"location": {"type": "Point", "coordinates": [23.7, 37.9]}}
        assert get_path(doc, "location.coordinates.0") == 23.7
        assert get_path(doc, "location.coordinates.1") == 37.9


    def test_flat_path_on_non_dict_mapping_takes_the_general_walk(self):
        ordered = collections.OrderedDict(a=1)
        assert get_path(ordered, "a") == 1
        assert get_path(ordered, "b") is MISSING
        assert get_path(collections.ChainMap({"a": {"b": 2}}), "a.b") == 2

    def test_dotted_key_is_a_path_not_a_field_name(self):
        assert get_path({"a.b": 1}, "a.b") is MISSING


class TestHasPath:
    def test_present(self):
        assert has_path(DOC, "b.d.e")
        assert has_path(DOC, "nul")

    def test_absent(self):
        assert not has_path(DOC, "b.d.zzz")


class TestSetPath:
    def test_simple(self):
        doc = {}
        set_path(doc, "a", 1)
        assert doc == {"a": 1}

    def test_creates_intermediates(self):
        doc = {}
        set_path(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}

    def test_overwrites_scalar_intermediate(self):
        doc = {"a": 5}
        set_path(doc, "a.b", 1)
        assert doc == {"a": {"b": 1}}

    def test_preserves_siblings(self):
        doc = {"a": {"x": 1}}
        set_path(doc, "a.y", 2)
        assert doc == {"a": {"x": 1, "y": 2}}


class TestIterPaths:
    def test_leaves_only(self):
        paths = dict(iter_paths(DOC))
        assert paths["a"] == 1
        assert paths["b.c"] == 2
        assert paths["b.d.e"] == 3
        assert "b" not in paths

    def test_arrays_are_leaves(self):
        paths = dict(iter_paths({"arr": [1, 2]}))
        assert paths == {"arr": [1, 2]}

    def test_empty_dict_is_leaf(self):
        paths = dict(iter_paths({"a": {}}))
        assert paths == {"a": {}}


class TestDeepCopy:
    def test_no_aliasing(self):
        original = {"a": {"b": [1, 2]}}
        copy = deep_copy_document(original)
        copy["a"]["b"].append(3)
        assert original["a"]["b"] == [1, 2]

    def test_missing_sentinel_is_falsy_singleton(self):
        assert not MISSING
        from repro.docstore.document import _Missing

        assert _Missing() is MISSING


class TestUnsetPath:
    def test_top_level_and_nested_fields_are_removed(self):
        doc = {"a": 1, "b": {"c": 2, "d": 3}}
        unset_path(doc, "a")
        unset_path(doc, "b.c")
        assert doc == {"b": {"d": 3}}

    def test_array_element_becomes_none(self):
        doc = {"arr": [1, {"x": 2}, 3]}
        unset_path(doc, "arr.0")
        unset_path(doc, "arr.1.x")
        assert doc == {"arr": [None, {}, 3]}

    def test_absent_paths_are_a_no_op(self):
        doc = {"a": 1, "arr": [1], "b": {"c": 2}}
        for path in ("z", "a.b", "b.z.y", "arr.5", "arr.x", "a.0"):
            unset_path(doc, path)
        assert doc == {"a": 1, "arr": [1], "b": {"c": 2}}


def _copy_pairs(document):
    """``(source, copy)`` for each way the store copies a document.

    The insert copy (``copy_with_shape``), the result copy of what the
    insert stored (its shape, called on it), and the result copy of a
    document the store adopted as given (bulk load: ``shape_of``).
    """
    stored, shape = copy_with_shape(document)
    adopted = dict(document)
    return [
        (document, stored),
        (stored, shape(stored)),
        (adopted, shape_of(adopted)(adopted)),
    ]


class TestFastCopy:
    def _fleet_document(self):
        (doc,) = FleetGenerator(FleetConfig(n_vehicles=2)).generate_list(1)
        return {**doc, "_id": ObjectId(), "hilbertIndex": 123456789}

    def test_equals_deep_copy_on_the_fleet_shape(self):
        doc = self._fleet_document()
        for source, copied in _copy_pairs(doc):
            assert copied == deep_copy_document(source) == doc
            assert list(copied) == list(doc)  # field order survives
            assert type(copied) is dict and copied is not source

    def test_nested_containers_are_new_objects(self):
        doc = self._fleet_document()
        for source, copied in _copy_pairs(doc):
            before = deep_copy_document(source)
            assert copied["location"] is not source["location"]
            assert (
                copied["location"]["coordinates"]
                is not source["location"]["coordinates"]
            )
            copied["location"]["coordinates"][0] = 0.0
            copied["weather"]["added"] = True
            assert source == before

    def test_the_fleet_shape_names_only_its_containers(self):
        stored, shape = copy_with_shape(self._fleet_document())
        assert shape == (
            ("location", (("coordinates", list),)),
            ("weather", dict),
            ("road", dict),
            ("poi", dict),
        )
        assert shape_of(stored) == shape

    def test_near_miss_layouts_have_different_shapes(self):
        # A collection reuses the previous document's shape object when
        # the next shape is equal to it, so equality must be exact.
        doc = self._fleet_document()
        shape = shape_of(doc)
        assert shape_of(self._fleet_document()) == shape
        changed = [
            {**doc, "weather": {**doc["weather"], "gusts": [1.0]}},
            {**doc, "extra": [1]},
            {**doc, "road": "primary"},
            {k: v for k, v in doc.items() if k != "poi"},
            {**doc, "location": {"type": "Point", "coordinates": (1.0, 2.0)}},
            {**doc, "location": {"type": "Point", "coordinates": [1.0, [2.0]]}},
            {**doc, "poi": [doc["poi"]]},
        ]
        for other in changed:
            assert shape_of(other) != shape

    def test_immutable_scalars_are_shared(self):
        doc = self._fleet_document()
        for source, copied in _copy_pairs(doc):
            assert copied["_id"] is source["_id"]
            assert copied["date"] is source["date"]
        assert isinstance(doc["date"], dt.datetime)

    def test_tuples_and_unknown_mutables_still_deep_copy(self):
        class Box:
            def __init__(self):
                self.items = [1]

            def __eq__(self, other):
                return self.items == other.items

        doc = {"t": ([1, 2], {"k": [3]}), "box": Box(), "s": {1, 2}}
        for source, copied in _copy_pairs(doc):
            assert copied == deep_copy_document(source)
            assert copied["t"][0] is not source["t"][0]
            assert copied["t"][1]["k"] is not source["t"][1]["k"]
            assert copied["box"] is not source["box"]
            assert copied["box"].items is not source["box"].items
            assert copied["s"] is not source["s"]

    def test_scalar_subclasses_are_shared_not_copied(self):
        class Tagged(str):
            pass

        class Oid(ObjectId):
            pass

        doc = {"s": Tagged("x"), "nested": {"o": Oid()}}
        for source, copied in _copy_pairs(doc):
            assert copied["s"] is source["s"]
            assert copied["nested"]["o"] is source["nested"]["o"]


class _TaggedDict(dict):
    pass


class _TaggedList(list):
    pass


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.binary(max_size=4)
    | st.datetimes()
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.tuples(inner, inner)
    | st.lists(inner, max_size=3).map(_TaggedList)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3).map(_TaggedDict),
    max_leaves=20,
)


def _containers(value, out):
    """The ids of every dict and list reachable from ``value``."""
    if isinstance(value, dict):
        out.add(id(value))
        items = value.values()
    elif isinstance(value, list):
        out.add(id(value))
        items = value
    elif isinstance(value, tuple):
        items = value
    else:
        return out
    for item in items:
        _containers(item, out)
    return out


@settings(max_examples=300, deadline=None)
@given(document=st.dictionaries(st.text(max_size=4), _values, max_size=6))
def test_fast_copy_equals_deep_copy_and_shares_no_container(document):
    for source, copied in _copy_pairs(document):
        assert copied == deep_copy_document(source)
        assert list(copied) == list(source)
        assert not _containers(source, set()) & _containers(copied, set())
