"""The cost-based chooser against the paper's three static approaches.

Deploys bslST, bslTS and hil side by side with the adaptive multi-index
cluster (:func:`repro.core.chooser.deploy_adaptive`), runs ANALYZE, and
replays a mixed-selectivity suite no single static approach serves well
(tiny boxes over months, the Q^b box over days, a region-sized box over
days).  Counters are deterministic, so both gates hold on every run:
every arm returns the same documents, and the chooser examines strictly
fewer documents in total than *every* static approach.
"""

import datetime as dt
import random
import re

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import deploy_approach, make_approach
from repro.core.chooser import CostBasedChooser, deploy_adaptive
from repro.core.query import SpatioTemporalQuery
from repro.datagen import GREECE_BBOX, FleetConfig, FleetGenerator
from repro.geo.geometry import BoundingBox
from repro.service import QueryService, ServiceConfig
from repro.workloads.queries import BIG_BBOX, SMALL_BBOX

N_DOCS = 1_500
N_QUERIES = 24
STATIC_NAMES = ("bslST", "bslTS", "hil")
#: Finer than the deployment default (13): the adaptive cluster can
#: afford the finer curve because the chooser caps the decomposition
#: on low-selectivity queries instead of paying Table-8 range
#: explosion on every big box.
ADAPTIVE_HILBERT_ORDER = 15
#: A region-sized box (most of Attica and beyond) for the suite's
#: medium tier.
MEDIUM_BBOX = BoundingBox(21.6, 35.3, 24.5, 38.4)


def mixed_selectivity_suite(n_queries, seed=11):
    """Rotate through three tiers, jittered so no literal repeats.

    The Q^s box over 45-120 days (time index useless, geo decisive),
    the Q^b box over 1-4 days (geo coarse, time decisive), and a
    region-sized box over 2-6 days (both weak; the capped Hilbert
    covering wins).
    """
    rng = random.Random(seed)
    t0 = dt.datetime(2018, 7, 1, tzinfo=dt.timezone.utc)
    queries = []
    for i in range(n_queries):
        kind = i % 4
        if kind in (0, 1):
            base, days = SMALL_BBOX, rng.uniform(45, 120)
        elif kind == 2:
            base, days = BIG_BBOX, rng.uniform(1, 4)
        else:
            base, days = MEDIUM_BBOX, rng.uniform(2, 6)
        width = base.max_lon - base.min_lon
        height = base.max_lat - base.min_lat
        jx = rng.uniform(-0.2, 0.2) * width
        jy = rng.uniform(-0.2, 0.2) * height
        scale = rng.uniform(0.6, 1.2)
        box = BoundingBox(
            base.min_lon + jx,
            base.min_lat + jy,
            base.min_lon + jx + width * scale,
            base.min_lat + jy + height * scale,
        )
        start = t0 + dt.timedelta(hours=rng.uniform(0, 24 * 60))
        queries.append(
            SpatioTemporalQuery(
                bbox=box,
                time_from=start,
                time_to=start + dt.timedelta(days=days),
            )
        )
    return queries


def canonical_documents(documents):
    """Sorted document reprs with enrichment fields stripped.

    The adaptive cluster's documents carry the load-time
    ``hilbertIndex`` enrichment (at a different order than the static
    hil arm's); identity is defined on the application fields.
    """
    return sorted(
        re.sub(r", 'hilbertIndex': \d+", "", str(d)) for d in documents
    )


def test_chooser_matches_and_out_prunes_every_static_approach():
    docs = FleetGenerator(FleetConfig(n_vehicles=40, seed=7)).generate_list(
        N_DOCS
    )

    def topology():
        return ClusterTopology(n_shards=4, n_config_servers=1, n_routers=1)

    static_deps = {
        name: deploy_approach(
            make_approach(name, dataset_bbox=GREECE_BBOX),
            docs,
            topology=topology(),
            chunk_max_bytes=256 * 1024,
        )
        for name in STATIC_NAMES
    }
    adaptive = deploy_adaptive(
        docs,
        topology(),
        chunk_max_bytes=256 * 1024,
        order=ADAPTIVE_HILBERT_ORDER,
    )
    totals = {name: 0 for name in STATIC_NAMES + ("chooser",)}
    with QueryService(adaptive.cluster, ServiceConfig()) as service:
        service.analyze_collection(adaptive.collection)
        chooser = CostBasedChooser(
            lambda: service.collection_stats(adaptive.collection),
            hil_order=ADAPTIVE_HILBERT_ORDER,
        )
        for i, query in enumerate(mixed_selectivity_suite(N_QUERIES)):
            frames = {}
            for name in STATIC_NAMES:
                result, _decomp_ms = static_deps[name].execute(query)
                totals[name] += result.stats.total_docs_examined
                frames[name] = canonical_documents(result.documents)
            decision = chooser.choose(query)
            rendered, _decomp_ms = adaptive.render(query, decision)
            result = adaptive.cluster.find(
                adaptive.collection, rendered, hint=decision.hint
            )
            totals["chooser"] += result.stats.total_docs_examined
            frames["chooser"] = canonical_documents(result.documents)
            for name, frame in frames.items():
                assert frame == frames["bslST"], (
                    "%s arm diverged on results of query %d" % (name, i)
                )
        assert chooser.fallbacks == 0
    for name in STATIC_NAMES:
        assert totals["chooser"] < totals[name], totals
