"""The effect core, driven directly: one walk and one inliner.

Every case runs under both vocabularies — the FS model (the effect is
an ``os.replace``) and the CC model (the effect is a mutation of
instance state) — because what is asserted here is what they share:
the context flags the walker stamps on an effect, the order calls are
visited in, and how the inliner splices a callee at a call site.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.astutil import (
    collect_lock_attrs,
    iter_classes,
    ordered_calls,
    owner_lock_attrs,
)
from repro.analysis.cachemodel import build_cache_model
from repro.analysis.fsmodel import build_fs_model

PREFIX = "repro.service.fixture."

#: vocabulary id → (model builder, a statement that is one effect,
#: that effect's kind).  ``os.replace`` also puts the module in the FS
#: model's durable domain.
VOCABULARIES = {
    "fs": (build_fs_model, "os.replace(tmp, path)", "replace"),
    "cc": (build_cache_model, "self.x = 1", "mutate"),
}


@pytest.fixture(params=sorted(VOCABULARIES))
def vocab(request, parse_modules):
    """``(build(source) -> model, kind)`` for one vocabulary."""
    builder, stmt, kind = VOCABULARIES[request.param]

    def build(source):
        header = "import os\nimport threading\n"
        return builder(parse_modules(header + source.replace("EFFECT", stmt)))

    return build, kind


def own(model, symbol, kind):
    return [
        e for e in model.summaries[PREFIX + symbol].effects if e.kind == kind
    ]


class TestWalkerContext:
    SOURCE = """
class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = object()

    def run(self, tmp, path):
        EFFECT
        try:
            EFFECT
        except OSError:
            EFFECT
        else:
            EFFECT
        finally:
            EFFECT
        with self._lock:
            EFFECT
        with self._other:
            EFFECT
        EFFECT

    def nested(self, tmp, path):
        with self._lock:
            try:
                pass
            except OSError:
                try:
                    pass
                finally:
                    EFFECT
"""

    def test_handler_finally_and_lock_flags(self, vocab):
        build, kind = vocab
        flags = [
            (e.in_handler, e.in_finally, e.under_lock)
            for e in own(build(self.SOURCE), "Box.run", kind)
        ]
        assert flags == [
            (False, False, ""),  # straight line
            (False, False, ""),  # try body
            (True, False, ""),  # except
            (False, False, ""),  # else
            (False, True, ""),  # finally
            (False, False, "_lock"),  # with self._lock
            (False, False, ""),  # with self.<not a lock>
            (False, False, ""),  # the lock scope ended
        ]

    def test_flags_compose_when_nested(self, vocab):
        build, kind = vocab
        (effect,) = own(build(self.SOURCE), "Box.nested", kind)
        assert (effect.in_handler, effect.in_finally, effect.under_lock) == (
            True,
            True,
            "_lock",
        )

    def test_effects_carry_their_origin_and_source_position(self, vocab):
        build, kind = vocab
        effects = own(build(self.SOURCE), "Box.run", kind)
        assert {e.origin for e in effects} == {PREFIX + "Box.run"}
        assert [e.line for e in effects] == sorted(e.line for e in effects)
        assert all(not e.inlined and e.depth == 0 for e in effects)

    def test_nested_scopes_are_separate_summaries(self, vocab):
        build, kind = vocab
        model = build(
            """
class Box:
    def outer(self, tmp, path):
        def inner():
            EFFECT
        return inner
"""
        )
        assert own(model, "Box.outer", kind) == []
        assert len(own(model, "Box.outer.inner", kind)) == 1


class TestCallOrder:
    SOURCE = """
def a(): EFFECT
def b(): EFFECT
def c(): EFFECT

def run(tmp, path):
    pick(c(), lambda: b(),
         a())
"""

    def test_calls_are_emitted_in_source_order_lambdas_included(self, vocab):
        build, _kind = vocab
        calls = own(build(self.SOURCE), "run", "call")
        assert [e.detail for e in calls] == [
            PREFIX + "c",
            PREFIX + "b",
            PREFIX + "a",
        ]
        assert [(e.line, e.col) for e in calls] == sorted(
            (e.line, e.col) for e in calls
        )

    def test_ordered_calls_sorts_whatever_walk_it_is_given(self):
        expr = ast.parse("f(g(1), (lambda: h())(), k())", mode="eval").body
        names = [
            call.func.id
            for call in ordered_calls(ast.walk(expr))
            if isinstance(call.func, ast.Name)
        ]
        assert names == ["f", "g", "h", "k"]


class TestInliner:
    SOURCE = """
class Box:
    def __init__(self):
        self._lock = threading.Lock()

    def leaf(self, tmp, path):
        try:
            pass
        finally:
            EFFECT

    def middle(self, tmp, path):
        self.leaf(tmp, path)

    def top(self, tmp, path):
        with self._lock:
            try:
                pass
            except OSError:
                self.middle(tmp, path)

    def loop(self, tmp, path):
        EFFECT
        self.loop(tmp, path)

    def calls_out(self, tmp, path):
        unknown_function(tmp)
        self.leaf(tmp, path)
"""

    def test_splice_is_reanchored_to_the_call_site(self, vocab):
        build, kind = vocab
        model = build(self.SOURCE)
        (call,) = own(model, "Box.top", "call")
        (spliced,) = model.inlined_effects(PREFIX + "Box.top")
        assert spliced.kind == kind
        assert spliced.inlined
        assert (spliced.line, spliced.col) == (call.line, call.col)
        # Context is the call site's, OR-ed with the callee's own.
        assert spliced.in_handler and spliced.in_finally
        assert spliced.under_lock == "_lock"
        # Two levels down, and it remembers where it was extracted.
        assert spliced.depth == 2
        assert spliced.origin == PREFIX + "Box.leaf"

    def test_depth_zero_keeps_the_call_marker(self, vocab):
        build, _kind = vocab
        model = build(self.SOURCE)
        symbol = PREFIX + "Box.top"
        assert (
            model.inlined_effects(symbol, depth=0)
            == model.summaries[symbol].effects
        )
        (one_level,) = model.inlined_effects(symbol, depth=1)
        assert one_level.kind == "call" and one_level.inlined
        assert one_level.detail == PREFIX + "Box.leaf"

    def test_recursion_keeps_the_call_marker(self, vocab):
        build, kind = vocab
        model = build(self.SOURCE)
        kinds = [
            e.kind for e in model.inlined_effects(PREFIX + "Box.loop")
        ]
        assert kinds == [kind, "call"]

    def test_callee_without_a_summary_keeps_the_call_marker(self, vocab):
        build, kind = vocab
        model = build(self.SOURCE)
        symbol = PREFIX + "Box.middle"
        del model.summaries[PREFIX + "Box.leaf"]
        assert (
            model.inlined_effects(symbol) == model.summaries[symbol].effects
        )
        assert [e.kind for e in model.summaries[symbol].effects] == ["call"]

    def test_unresolved_calls_emit_no_marker(self, vocab):
        build, kind = vocab
        model = build(self.SOURCE)
        effects = model.inlined_effects(PREFIX + "Box.calls_out")
        assert [e.kind for e in effects] == [kind]


class TestLockAttributeIndex:
    def test_index_agrees_with_collect_lock_attrs_on_the_shipped_tree(
        self, shipped
    ):
        _findings, context = shipped
        checked = 0
        for module in context.modules:
            index = owner_lock_attrs(module.tree)
            outermost = [
                cls for qual, cls in iter_classes(module.tree) if "." not in qual
            ]
            for cls in outermost:
                expected = collect_lock_attrs(cls)
                for node in ast.walk(cls):
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        assert index[id(node)] == expected
                        checked += 1
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef):
                    assert id(node) not in index
        assert checked > 500

    def test_graph_lookup_reads_the_index(self, shipped):
        _findings, context = shipped
        graph = context.callgraph
        info = graph.functions["repro.docstore.lsm.engine.LSMEngine.put_one"]
        assert "_write_lock" in graph.owner_lock_attrs(info)
        free = graph.functions["repro.analysis.astutil.dotted_name"]
        assert graph.owner_lock_attrs(free) == frozenset()

    def test_nested_class_answers_with_its_outermost_owner(self):
        tree = ast.parse(
            """
import threading

class Outer:
    def __init__(self):
        self._lock = threading.Lock()

    class Helper:
        def touch(self):
            pass
"""
        )
        helper = tree.body[1].body[1]
        assert owner_lock_attrs(tree)[id(helper.body[0])] == {"_lock"}
