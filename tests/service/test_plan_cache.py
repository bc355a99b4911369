"""Query keys: shape normalization."""

from repro.service.plan_cache import query_shape_key


class TestShapeKey:
    def test_constants_are_erased(self):
        a = query_shape_key("t", {"k": {"$gte": 1, "$lt": 5}})
        b = query_shape_key("t", {"k": {"$gte": 100, "$lt": 999}})
        assert a == b

    def test_operator_kinds_distinguish(self):
        eq = query_shape_key("t", {"k": 3})
        rng = query_shape_key("t", {"k": {"$gte": 1, "$lt": 5}})
        inop = query_shape_key("t", {"k": {"$in": [1, 2]}})
        assert len({eq, rng, inop}) == 3

    def test_paths_distinguish(self):
        assert query_shape_key("t", {"k": 3}) != query_shape_key("t", {"j": 3})

    def test_collection_distinguishes(self):
        assert query_shape_key("a", {"k": 3}) != query_shape_key("b", {"k": 3})

    def test_or_of_ranges_normalizes(self):
        # The Hilbert $or pattern: many range clauses, same path.
        a = query_shape_key(
            "t", {"$or": [{"h": {"$gte": 1, "$lte": 2}}, {"h": {"$in": [9]}}]}
        )
        b = query_shape_key(
            "t", {"$or": [{"h": {"$gte": 5, "$lte": 8}}, {"h": {"$in": [4]}}]}
        )
        assert a == b
