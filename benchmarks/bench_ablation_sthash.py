"""Ablation: hil vs ST-Hash (the related-work scheme, Section 2.2).

The paper dismisses ST-Hash because its year-first, time-leading
encoding "is not effective for queries with high spatial selectivity
but low temporal selectivity".  This bench deploys both schemes on the
same data and quantifies the critique: the number of query ranges, the
keys examined, and the time for a small-box/long-window query —
against the paper's own workload queries as a control.
"""

import datetime as dt
import statistics

import pytest

from benchmarks._harness import bench_once, emit, format_table
from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import deploy_approach
from repro.core.benchmark import measure_query
from repro.core.query import SpatioTemporalQuery
from repro.core.sthash import STHashApproach
from repro.workloads.queries import SMALL_BBOX, big_queries, small_queries

UTC = dt.timezone.utc


def spatially_selective_long_query():
    """The critique's query shape: tiny box, nearly the whole span."""
    return SpatioTemporalQuery(
        bbox=SMALL_BBOX,
        time_from=dt.datetime(2018, 7, 5, tzinfo=UTC),
        time_to=dt.datetime(2018, 11, 25, tzinfo=UTC),
        label="QsLong",
    )


def uncached_hilbert_decomposition_ms(deployment, query, runs=2):
    """hil's cell-identification time, averaged over ``runs`` calls.

    Taken through :meth:`SpatioTemporalQuery.hilbert_ranges`, as
    ``bench_table8_hilbert_timing.py`` takes it, so the figure times
    the covering alone, like ST-Hash's range computation.
    """
    approach = deployment.approach
    return statistics.fmean(
        query.hilbert_ranges(approach.encoder, approach.max_query_ranges)[1]
        for _ in range(runs)
    )


@pytest.fixture(scope="module")
def sthash(cache):
    _info, docs = cache.dataset("R")
    return deploy_approach(
        STHashApproach(),
        docs,
        topology=ClusterTopology(n_shards=12),
        chunk_max_bytes=32 * 1024,
    )


def test_report(sthash, cache, benchmark):
    hil = cache.deployment("hil", "R")
    rows = []
    queries = small_queries() + big_queries() + [
        spatially_selective_long_query()
    ]
    for q in queries:
        for name, dep in (("hil", hil), ("sthash", sthash)):
            m = measure_query(dep, q, runs=2, average_last=1)
            decomposition_ms = (
                uncached_hilbert_decomposition_ms(dep, q)
                if name == "hil"
                else m.decomposition_ms
            )
            rows.append(
                [
                    name,
                    q.label,
                    m.nodes,
                    m.max_keys_examined,
                    m.max_docs_examined,
                    "%.2f" % m.execution_time_ms,
                    "%.2f" % decomposition_ms,
                    m.n_returned,
                ]
            )
    emit(
        "ablation_sthash",
        format_table(
            "Ablation — hil vs ST-Hash (R); QsLong = tiny box, 4.7 months",
            ["scheme", "query", "nodes", "maxKeys", "maxDocs", "time(ms)",
             "decomp(ms)", "results"],
            rows,
        ),
    )
    bench_once(benchmark, lambda: sthash.execute(big_queries()[1]))


def test_results_agree(sthash, cache, benchmark):
    hil = cache.deployment("hil", "R")
    for q in small_queries() + big_queries():
        assert len(sthash.execute(q)[0]) == len(hil.execute(q)[0]), q.label
    bench_once(benchmark, lambda: sthash.execute(small_queries()[0]))


def test_critique_spatial_selectivity_low_temporal(sthash, cache, benchmark):
    # Section 2.2: for a spatially tiny query over a long window,
    # ST-Hash's covering fragments with the window while hil's does
    # not, and ST-Hash pays more at execution.
    hil = cache.deployment("hil", "R")
    q = spatially_selective_long_query()
    hil_m = measure_query(hil, q, runs=1, average_last=1)
    st_m = measure_query(sthash, q, runs=1, average_last=1)
    assert len(hil.execute(q)[0]) == len(sthash.execute(q)[0])
    assert st_m.max_keys_examined >= hil_m.max_keys_examined
    bench_once(benchmark, lambda: sthash.execute(q))


def test_range_count_grows_with_window_for_sthash_only(sthash, cache, benchmark):
    from repro.core.encoder import SpatioTemporalEncoder

    st_encoder = sthash.approach.encoder
    hil_encoder = cache.deployment("hil", "R").approach.encoder
    t0 = dt.datetime(2018, 7, 5, tzinfo=UTC)
    windows = [1, 10, 60, 140]
    st_counts = []
    hil_counts = []
    for days in windows:
        q = SpatioTemporalQuery(
            bbox=SMALL_BBOX,
            time_from=t0,
            time_to=t0 + dt.timedelta(days=days),
        )
        st_counts.append(len(st_encoder.query_ranges(q)))
        hil_counts.append(len(q.hilbert_ranges(hil_encoder)[0].all_ranges))
    assert st_counts == sorted(st_counts)
    assert st_counts[-1] > 5 * st_counts[0]
    assert len(set(hil_counts)) == 1  # window-independent
    bench_once(
        benchmark,
        lambda: st_encoder.query_ranges(spatially_selective_long_query()),
    )
