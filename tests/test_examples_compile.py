"""Syntax/import guards for the example scripts.

CI runs every example end to end (they deploy clusters); here we
guarantee each script at least parses and its imports resolve, so a
refactor cannot silently break the documented entry points.
"""

import ast
import importlib
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_parses(name):
    path = os.path.join(EXAMPLES_DIR, name)
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=name)
    # Each example documents itself and is runnable as a script.
    assert ast.get_docstring(tree), "%s lacks a module docstring" % name
    assert "__main__" in source, "%s is not runnable as a script" % name


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_resolve(name):
    path = os.path.join(EXAMPLES_DIR, name)
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    "%s.%s" % (node.module, alias.name)
                ), "%s: %s.%s missing" % (name, node.module, alias.name)


def test_expected_example_set():
    # The README documents these seven walkthroughs.
    expected = {
        "quickstart.py",
        "fleet_analytics.py",
        "approach_comparison.py",
        "curve_gallery.py",
        "zone_tuning.py",
        "adaptive_partitioning.py",
        "service_throughput.py",
    }
    assert expected == set(EXAMPLES)
