"""The public API surface: imports, __all__ hygiene, version, layering."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_documentation import MODULES

PACKAGES = [
    "repro",
    "repro.sfc",
    "repro.geo",
    "repro.docstore",
    "repro.cluster",
    "repro.service",
    "repro.core",
    "repro.datagen",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)


def test_version():
    import repro

    assert repro.__version__


def test_top_level_workflow_symbols():
    # The names the README's quickstart uses.
    from repro import (
        SpatioTemporalQuery,
        deploy_approach,
        make_approach,
        measure_query,
    )

    assert callable(deploy_approach)
    assert callable(make_approach)
    assert callable(measure_query)
    assert SpatioTemporalQuery is not None


def test_errors_hierarchy():
    from repro import errors

    assert issubclass(errors.DuplicateKeyError, errors.DocumentStoreError)
    assert issubclass(errors.DocumentStoreError, errors.ReproError)
    assert issubclass(errors.ZoneError, errors.ShardingError)
    assert issubclass(errors.ShardingError, errors.ReproError)


#: The two spellings ``benchmarks/perf`` pins (ROADMAP items 1(d) and 8(a)): the
#: targeting-cache bypass and a wire field no worker reads.
FAST_PATH_ALLOWED = {
    "repro.cluster.cluster.ShardedCluster.targeting_for",
    "repro.service.wire.PlanMessage",
}


def _named_parameters(module):
    """``(qualified name, parameter or field names)`` a module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        qualname = "%s.%s" % (module.__name__, name)
        if inspect.isfunction(obj):
            yield qualname, inspect.signature(obj).parameters
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                yield qualname, [f.name for f in dataclasses.fields(obj)]
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield (
                        "%s.%s" % (qualname, attr),
                        inspect.signature(member).parameters,
                    )


def test_no_execution_path_switch_outside_the_pinned_spellings():
    # There is one execution path; the interpreter lives in
    # repro.reference.  A parameter or dataclass field named fast_path
    # anywhere else is the old switch coming back.
    offenders = {
        qualname.removesuffix(".__init__")
        for module in MODULES
        for qualname, names in _named_parameters(module)
        if "fast_path" in names
    }
    assert offenders == FAST_PATH_ALLOWED


def test_production_imports_leave_the_reference_module_out():
    code = (
        "import sys, repro, repro.service, repro.core, repro.workloads\n"
        "sys.exit('repro.reference' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=120
    )
    assert done.returncode == 0


#: Architectural layers, lowest first: a module may import only from
#: its own layer or below.  Unlisted packages fall back to ``repro``,
#: so ``repro.sanitizer`` and ``repro.reference`` sit on top, where no
#: lower layer (``service.executors`` included) may import them.
LAYERS = {
    "repro.errors": 0,
    "repro.geo": 1,
    "repro.sfc": 1,
    "repro.docstore": 2,
    "repro.cluster": 3,
    "repro.core": 4,
    "repro.datagen": 4,
    "repro.workloads": 4,
    "repro.service": 5,
    "repro.analysis": 6,
    "repro.cli": 6,
    "repro": 6,
}

SRC = Path(__file__).resolve().parents[1] / "src"


def _layer_of(module):
    parts = module.split(".")
    for width in (2, 1):
        if ".".join(parts[:width]) in LAYERS:
            return LAYERS[".".join(parts[:width])]
    return -1  # outside the project: always importable


def test_no_module_imports_a_higher_layer():
    violations = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        importer = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            violations += [
                "%s:%d imports %s" % (importer, node.lineno, name)
                for name in names
                if _layer_of(name) > _layer_of(importer)
            ]
    assert violations == []


#: Surface deleted because nothing in ``src/`` called it (DESIGN.md §11
#: and §13): the per-query chooser and its statistics, the names only
#: their own unit tests reached, the parameterized-plan binder the
#: one compiling walk replaced, the replica snapshots a forked
#: worker replaced, the shard locks and read turn the service's
#: one lock replaced (DESIGN.md §10), and the targeting memo every
#: read now routes around (DESIGN.md §8).  Module -> attribute paths.
DELETED = {
    "repro.core.chooser": [],
    "repro.docstore.stats": [],
    "repro.cache": [],
    "repro.cluster.catalog": ["ConfigCatalog.list_collections"],
    "repro.cluster.cluster": ["ShardedCluster.targeting_cache"],
    "repro.cluster.chunk": ["ShardKeyPattern.is_hashed"],
    "repro.cluster.router": [
        "lex_range_intersects_box",
        "target_chunks_cached",
        "targeting_cache_key",
    ],
    "repro.cluster.zones": ["ZoneSet.overlapping_zones", "Zone.overlaps_range"],
    "repro.docstore.bson": ["ObjectId.from_hex", "ObjectId.generation_time"],
    "repro.docstore.btree": ["BPlusTree.count_range"],
    "repro.docstore.cursor": ["Cursor.first"],
    "repro.docstore.collection": [
        "Collection.find_one",
        "Collection.list_indexes",
        "Collection.storage_epoch",
        "Collection.from_snapshot",
        "Collection.all_records",
    ],
    "repro.docstore.document": ["has_path"],
    "repro.docstore.index": ["IndexDefinition.field_kind", "Index.raw_key_of"],
    "repro.docstore.matcher": ["Matcher.from_tagged"],
    "repro.docstore.paramplan": ["plan_read", "_bind_ops_slot", "_GEO_OPS"],
    "repro.docstore.lsm.engine": ["LSMEngine.delete_one", "LSMEngine.storage_epoch"],
    "repro.docstore.lsm.wal": [
        "WriteAheadLog.durable_lsn",
        "WriteAheadLog.written_lsn",
    ],
    "repro.geo.geometry": [
        "Point.as_tuple",
        "BoundingBox.from_corners",
        "BoundingBox.world",
        "BoundingBox.center",
        "BoundingBox.area_km2",
        "BoundingBox.contains_lonlat",
        "BoundingBox.intersection",
        "BoundingBox.expanded",
        "LineString.length_km",
        "haversine_km",
    ],
    "repro.geo": ["haversine_km"],
    "repro.sanitizer": [
        "instrument_stats_catalog",
        "instrument_targeting_cache",
        "SHARD_LOCKS_KEY",
        "TURN_LOCK_KEY",
        "TARGETING_CACHE_LOCK_KEY",
    ],
    "repro.sanitizer.cachetrace": ["instrument_targeting_cache"],
    "repro.sanitizer.instrument": [
        "SHARD_LOCKS_KEY",
        "TURN_LOCK_KEY",
        "TARGETING_CACHE_LOCK_KEY",
    ],
    "repro.service.executors": [
        "ShardWorkerPool.client_for",
        "SubquerySpec.shape",
        "_WorkerClient.synced_epoch",
        "_WorkerHost._apply_sync_locked",
    ],
    "repro.service.wire": [
        "SyncFrame",
        "make_sync_payload",
        "load_sync_payload",
    ],
    "repro.service.service": [
        "QueryService.analyze_collection",
        "QueryService.collection_stats",
        "QueryService._read_lock_targeted_shards",
    ],
    "repro.service.locks": [
        "FifoTurn",
        "ReadWriteLock.read_locked",
        "ReadWriteLock.write_locked",
    ],
}


@pytest.mark.parametrize("module_name", sorted(DELETED))
def test_deleted_surface_stays_deleted(module_name):
    paths = DELETED[module_name]
    if not paths:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)
        return
    module = importlib.import_module(module_name)
    for path in paths:
        owner = module
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert not hasattr(owner, leaf), "%s.%s is back" % (module_name, path)


def test_deleted_cluster_attributes_stay_deleted():
    # Instance attributes: the class-level check above cannot see them.
    from repro.cluster.cluster import ClusterTopology, ShardedCluster

    cluster = ShardedCluster(topology=ClusterTopology(n_shards=1))
    for path in DELETED["repro.cluster.cluster"]:
        assert not hasattr(cluster, path.split(".")[-1]), "%s is back" % path
