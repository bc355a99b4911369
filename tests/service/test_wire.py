"""Round-trip tests for the executor wire frames.

Everything that crosses the worker-process boundary must decode back
to exactly what was encoded: plan messages for every query shape the
differential suite exercises, read requests, result payloads (record
ids, including empty result sets), result frames, counter frames
field-for-field, and error frames.  No document crosses the wire:
workers are forks of the whole cluster.
"""

import datetime as _dt
import pickle
import random

import pytest

from repro.core.approaches import make_approach
from repro.docstore.collection import Collection
from repro.docstore.executor import ExecutionStats
from repro.geo.geometry import BoundingBox
from repro.service.plan_cache import exact_query_key, query_shape_key
from repro.service.wire import (
    WIRE_PROTOCOL,
    PlanMessage,
    ReadRequest,
    ResultFrame,
    ShutdownFrame,
    decode_error,
    decode_result,
    decode_stats,
    encode_error,
    encode_result,
    encode_stats,
)
from repro.workloads.queries import SpatioTemporalQuery, all_queries

_UTC = _dt.timezone.utc


def _counters(stats):
    """The deterministic execution counters (stage times are wall-clock)."""
    return (
        stats.keys_examined,
        stats.docs_examined,
        stats.n_returned,
        stats.seeks,
        stats.stage,
        stats.index_name,
    )


def _differential_query_documents():
    """Rendered query documents covering the differential suite's shapes.

    Every approach the differential suite parametrizes renders both
    the paper's fixed query sets and a randomized sweep — the same
    generator family ``test_fast_path_differential`` uses.
    """
    rng = random.Random(17)
    spatio_temporal = [q for qs in all_queries().values() for q in qs]
    for i in range(10):
        width = 10.0 ** rng.uniform(-2.0, 0.8)
        height = 10.0 ** rng.uniform(-2.0, 0.6)
        min_lon = rng.uniform(20.0, 28.0)
        min_lat = rng.uniform(34.0, 41.0)
        t_from = _dt.datetime(2018, 7, 1, tzinfo=_UTC) + _dt.timedelta(
            seconds=rng.randrange(0, 90 * 24 * 3600)
        )
        spatio_temporal.append(
            SpatioTemporalQuery(
                bbox=BoundingBox(
                    min_lon,
                    min_lat,
                    min(min_lon + width, 180.0),
                    min(min_lat + height, 90.0),
                ),
                time_from=t_from,
                time_to=t_from + _dt.timedelta(hours=6),
                label="rand-%d" % i,
            )
        )
    documents = []
    for name in ("hil", "bslST", "bslTS"):
        approach = make_approach(name)
        for query in spatio_temporal:
            rendered, _ = approach.render_query(query)
            documents.append(rendered)
    # Service-style scalar shapes the spatio-temporal renderers never
    # produce.
    documents.extend(
        [
            {},
            {"k": 5},
            {"k": {"$gte": 1, "$lt": 9}},
            {"$or": [{"k": 1}, {"group": {"$in": [1, 2]}}]},
        ]
    )
    return documents


class TestPlanMessageRoundTrip:
    def test_every_differential_shape_roundtrips(self):
        for query in _differential_query_documents():
            plan = PlanMessage(
                collection="t",
                query=query,
                hint="some_index",
                max_geo_ranges=32,
                fast_path=True,
                shape_key=query_shape_key("t", query),
                exact_key=exact_query_key("t", query),
                epoch=7,
            )
            clone = pickle.loads(pickle.dumps(plan, protocol=WIRE_PROTOCOL))
            assert clone == plan
            # The cache keys must survive the trip usable as dict keys
            # with unchanged hashes.
            assert hash(clone.shape_key) == hash(plan.shape_key)
            if plan.exact_key is not None:
                assert hash(clone.exact_key) == hash(plan.exact_key)

    def test_read_request_roundtrips(self):
        query = {"k": {"$gte": 1}}
        request = ReadRequest(
            request_id=3,
            plan=PlanMessage(
                collection="t",
                query=query,
                hint=None,
                max_geo_ranges=None,
                fast_path=True,
                shape_key=query_shape_key("t", query),
                exact_key=exact_query_key("t", query),
                epoch=(4, (2, None, 0)),
                stall_ms={"shard01": 5.0},
            ),
        )
        clone = pickle.loads(pickle.dumps(request, protocol=WIRE_PROTOCOL))
        assert clone == request
        # The read epoch travels as one comparable value.
        assert clone.plan.epoch == (4, (2, None, 0))
        shutdown = ShutdownFrame()
        assert isinstance(
            pickle.loads(pickle.dumps(shutdown, protocol=WIRE_PROTOCOL)),
            ShutdownFrame,
        )


def _loaded_collection():
    col = Collection("t")
    col.create_index([("k", 1)], name="k_1")
    col.insert_many(
        {"_id": i, "k": i % 13, "group": i % 3, "pad": "x" * 8}
        for i in range(120)
    )
    return col


class TestCounterFrames:
    def test_real_execution_stats_roundtrip(self):
        col = _loaded_collection()
        for query in ({"k": 4}, {"k": {"$gte": 3, "$lt": 9}}, {}):
            stats = col.find_with_stats(query).stats
            clone = decode_stats(encode_stats(stats))
            assert clone == stats
            assert clone.as_dict() == stats.as_dict()

    def test_every_stats_field_is_framed(self):
        # A field added to ExecutionStats must break this test rather
        # than silently dropping a counter on the wire.
        stats = ExecutionStats()
        framed = set(
            name
            for name in vars(stats)
            if not name.startswith("__")
        )
        frame = encode_stats(stats)
        assert len(frame) == len(framed)

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            decode_stats((1, 2, 3))


class TestResultFrames:
    def test_documents_roundtrip_byte_identical(self):
        # Workers send rids; the codec still takes any list (the
        # benchmark harness times it on documents), so both kinds
        # must come back exactly.
        col = _loaded_collection()
        query = {"k": {"$gte": 3, "$lt": 9}}
        rids, stats, _plan = col.find_rids(query)
        assert decode_result(encode_result(rids, stats)) == (rids, stats)
        result = col.find_with_stats(query)
        documents, clone_stats = decode_result(
            encode_result(result.documents, result.stats)
        )
        assert documents == result.documents
        for sent, received in zip(result.documents, documents):
            assert pickle.dumps(received, protocol=WIRE_PROTOCOL) == (
                pickle.dumps(sent, protocol=WIRE_PROTOCOL)
            )
        assert clone_stats == result.stats

    def test_empty_result_roundtrips(self):
        col = _loaded_collection()
        rids, stats, _plan = col.find_rids({"k": 99})
        assert rids == []
        assert decode_result(encode_result(rids, stats)) == ([], stats)

    def test_result_frame_flags_roundtrip(self):
        col = _loaded_collection()
        rids, stats, _plan = col.find_rids({"k": 4})
        answered = ResultFrame(
            request_id=9,
            shard_ids=("shard00", "shard02"),
            broadcast=True,
            payloads=(encode_result(rids, stats), encode_result([], stats)),
            plan_ms=0.25,
            epoch=(1, (3, 3)),
            violations=("lock-order: bad",),
        )
        failed = ResultFrame(request_id=10, error=b"error")
        for frame in (answered, failed):
            assert pickle.loads(
                pickle.dumps(frame, protocol=WIRE_PROTOCOL)
            ) == frame
        clone = pickle.loads(pickle.dumps(answered, protocol=WIRE_PROTOCOL))
        assert [decode_result(p) for p in clone.payloads] == [
            (rids, stats),
            ([], stats),
        ]


class TestErrorFrames:
    def test_exception_roundtrips(self):
        err = decode_error(encode_error(ValueError("bad bounds")))
        assert isinstance(err, ValueError)
        assert err.args == ("bad bounds",)

    def test_unpicklable_exception_degrades_loudly(self):
        class Weird(Exception):
            def __init__(self, a, b):
                super().__init__("%s/%s" % (a, b))

        # Weird is a local class: pickling it fails outright, so the
        # codec must fall back to a RuntimeError carrying the repr.
        err = decode_error(encode_error(Weird(1, 2)))
        assert isinstance(err, RuntimeError)
        assert "Weird" in str(err) or "1/2" in str(err)
