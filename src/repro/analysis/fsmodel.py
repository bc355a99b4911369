"""Static dataflow over filesystem effects (the crash-consistency model).

PR 6's review found three acknowledged-write-loss bugs in the LSM
engine by hand, and every one of them was an *ordering* bug over a
small vocabulary of filesystem effects: write → fsync → rename →
directory-fsync → unlink, plus close-vs-unlink on handles concurrent
readers still ``pread``.  This module extracts that vocabulary from
the AST so the FS checkers (:mod:`repro.analysis.checkers.fsconsistency`)
can judge orderings the same way the lock-order analysis judges
acquisition orders.

Per function, the model records an ordered
:class:`~repro.analysis.effects.Effect` sequence:

* ``open``      — ``open(path, mode)`` / ``os.open`` (mode recorded);
* ``write``     — ``handle.write(...)`` on a tracked handle;
* ``flush``     — ``handle.flush()``;
* ``fsync``     — ``os.fsync(handle.fileno())`` / ``os.fsync(fd)``;
* ``dirfsync``  — a directory fsync: ``os.fsync`` of an ``os.open``-ed
  directory descriptor, or a call to a helper whose own summary is
  exactly that shape (``_fsync_directory``);
* ``replace``   — ``os.replace`` / ``os.rename`` (the commit point of
  every atomic-publish protocol in the store);
* ``unlink``    — ``os.remove`` / ``os.unlink``, or ``handle.remove()``
  on a reader-visible handle;
* ``close``     — ``handle.close()`` (a ``with open(...)`` block closes
  at exit);
* ``mutate``    — a plain assignment rebinding a ``self`` attribute
  that the same function also *read* (the state-swap shape);
* ``call``      — a call site the PR-3 call graph resolved; expanded by
  :meth:`FsModel.inlined_effects` so orderings that span functions
  (``_flush`` → ``_write_manifest_locked`` → ``os.replace``) are
  visible to the checkers.

Effects inside ``except`` handlers are tagged ``in_handler`` — those
are failure-path compensations (a crash would not run them either),
and the ordering rules judge only the success path.

The model is deliberately source-ordered and heuristic, like the rest
of ``repro.analysis``: the runtime trace oracle
(:mod:`repro.sanitizer.fstrace`) cross-validates what this
approximation misses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import dotted_name, expr_text, self_attr
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.checker import ModuleInfo
from repro.analysis.effects import Effect, EffectModel, EffectWalker

__all__ = [
    "FsFunctionSummary",
    "FsModel",
    "HandleState",
    "build_fs_model",
    "module_in_domain",
]

#: ``open`` mode characters that make a handle writable.
_WRITE_MODE_CHARS = set("wax+")

#: Bare call names treated as the builtin ``open``.
_OPEN_NAMES = {"open"}

#: ``os``-module functions mapped to effect kinds.
_OS_EFFECTS = {
    "replace": "replace",
    "rename": "replace",
    "remove": "unlink",
    "unlink": "unlink",
}


def module_in_domain(module: ModuleInfo) -> bool:
    """Whether the FS rules apply to this module at all.

    The durable domain is any module that touches the commit-protocol
    primitives — ``os.fsync``, ``os.replace``/``os.rename``, or
    ``os.pread`` — plus everything under ``docstore/lsm``.  A module
    that never fsyncs is not on the durable path (CSV exporters may
    write files without any crash-consistency contract), so the rules
    stay silent there.
    """
    if "/docstore/lsm/" in module.path:
        return True
    source = module.source
    return (
        "os.fsync" in source
        or "os.replace" in source
        or "os.rename" in source
        or "os.pread" in source
    )


@dataclass
class HandleState:
    """Lifecycle of one locally-opened write handle (feeds FS001)."""

    name: str
    opened_line: int
    mode: str
    writes: int = 0
    last_write_line: int = 0
    fsynced_after_write: bool = True
    closed_line: Optional[int] = None
    #: Stored on ``self``, returned, or passed onward — the durability
    #: obligation escapes with it and FS001 does not judge it here.
    escaped: bool = False
    #: Path expression text the handle was opened on (if literal-ish).
    path_text: str = ""


@dataclass
class FsFunctionSummary:
    """Everything the FS rules need to know about one function."""

    symbol: str
    info: FunctionInfo
    effects: List[Effect] = field(default_factory=list)
    handles: List[HandleState] = field(default_factory=list)
    #: Temp-file suffix literals used in paths opened for write.
    temp_suffixes: List[Tuple[str, int]] = field(default_factory=list)
    #: Suffix literals guarded by ``endswith`` in a scope that also
    #: unlinks — a recovery sweep.
    sweep_suffixes: Set[str] = field(default_factory=set)
    #: ``self`` attributes read before any write, with first-read line.
    attr_reads: Dict[str, int] = field(default_factory=dict)
    #: Plain ``self.X = ...`` rebinds: ``(attr, line, col, in_handler)``.
    attr_writes: List[Tuple[str, int, int, bool]] = field(
        default_factory=list
    )
    #: Whether the function's own effects include a directory fsync
    #: shape (makes calls to it splice a ``dirfsync`` effect).
    is_dirfsync_helper: bool = False


class FsModel(EffectModel[FsFunctionSummary]):
    """The project-wide filesystem-effect model."""

    def stand_in(
        self, callee: FsFunctionSummary, call: Effect
    ) -> Optional[Effect]:
        """A call to a directory-fsync helper *is* a ``dirfsync``."""
        if not callee.is_dirfsync_helper:
            return None
        return Effect("dirfsync", call.target, call.line, call.col)


def build_fs_model(
    modules: Sequence[ModuleInfo],
    callgraph: Optional[CallGraph] = None,
) -> FsModel:
    """Extract per-function effect summaries for the whole module set.

    ``callgraph`` may be shared (see
    :class:`repro.analysis.checker.ProjectContext`) so the FS and
    lock-order checkers pay for call resolution once.
    """
    graph = callgraph if callgraph is not None else build_call_graph(modules)
    domain_paths = {m.path for m in modules if module_in_domain(m)}
    summaries: Dict[str, FsFunctionSummary] = {}
    for symbol, info in graph.functions.items():
        if info.module.path not in domain_paths:
            continue
        if isinstance(info.node, ast.Lambda):
            continue
        extractor = _EffectExtractor(info, graph)
        summaries[symbol] = extractor.run()
    return FsModel(summaries, graph)


class _EffectExtractor(EffectWalker):
    """The FS vocabulary: which calls and assignments are FS effects."""

    def __init__(self, info: FunctionInfo, graph: CallGraph) -> None:
        super().__init__(info, graph)
        self.summary = FsFunctionSummary(
            symbol=info.symbol, info=info, effects=self.effects
        )
        #: Local name → HandleState for write handles opened here.
        self._handles: Dict[str, HandleState] = {}
        #: Local fd aliases: ``fd = fh.fileno()`` / ``fd = os.open(...)``.
        self._fd_aliases: Dict[str, str] = {}
        #: Locals carrying reader-visible objects (drawn from a shared
        #: ``self`` collection of a lock-owning class), including
        #: collections of them.
        self._visible: Set[str] = set()
        self._visible_collections: Set[str] = set()
        #: Local string vars built from a path + temp-suffix literal.
        self._temp_paths: Dict[str, str] = {}
        self._saw_dir_open = False
        self._saw_fsync_of_dir_fd = False

    def run(self) -> FsFunctionSummary:
        self.walk()
        self.summary.handles.extend(self._handles.values())
        # A helper whose whole job is os.open(dir) + os.fsync(fd) is a
        # directory-fsync primitive: calls to it become ``dirfsync``.
        self.summary.is_dirfsync_helper = (
            self._saw_dir_open and self._saw_fsync_of_dir_fd
        )
        return self.summary

    # -- statement shapes --------------------------------------------------------

    def visit_test(self, test: ast.expr) -> None:
        self._note_attr_read_in(test)
        self.scan(test)

    def visit_for(self, stmt: ast.For) -> None:
        self.scan(stmt.iter)
        self._track_for_target(stmt)

    def visit_simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            # Counter bumps are not the state-swap shape; only note
            # the read side.
            self._note_attr_read_in(stmt.value)
            self._note_attr_read_in(stmt.target)
        elif (
            isinstance(stmt, (ast.AnnAssign, ast.Expr, ast.Return))
            and stmt.value is not None
        ):
            self._note_attr_read_in(stmt.value)
            if isinstance(stmt, ast.Return):
                self._mark_escapes(stmt.value)
            self.scan(stmt.value)
        else:
            self.scan_children(stmt)

    def visit_with_item(self, item: ast.withitem) -> bool:
        ctx = item.context_expr
        if not (
            isinstance(ctx, ast.Call)
            and isinstance(item.optional_vars, ast.Name)
        ):
            return False
        mode = self._open_call_mode(ctx)
        if mode is None:
            return False
        self._register_open(item.optional_vars.id, ctx, mode or "r")
        return True

    def leave_with(
        self, stmt: ast.With, claimed: Sequence[ast.withitem]
    ) -> None:
        """``with open(...) as fh:`` closes the handle at block exit."""
        line = stmt.end_lineno or stmt.lineno
        for item in claimed:
            assert isinstance(item.optional_vars, ast.Name)
            name = item.optional_vars.id
            handle = self._handles.get(name)
            if handle is not None and handle.closed_line is None:
                handle.closed_line = line
                self.emit("close", name, line, 0)

    def _visit_assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        self._note_attr_read_in(value)
        targets = stmt.targets
        name_target = (
            targets[0].id
            if len(targets) == 1 and isinstance(targets[0], ast.Name)
            else None
        )
        # self.X = <expr> rebinds: the FS004 mutation shape.
        for target in targets:
            attr = self_attr(target)
            if attr is not None:
                self.summary.attr_writes.append(
                    (
                        attr,
                        stmt.lineno,
                        stmt.col_offset,
                        self._handler_depth > 0,
                    )
                )
                self.emit("mutate", attr, stmt.lineno, stmt.col_offset)
                if isinstance(
                    value, ast.Call
                ) and self._open_call_mode(value) is not None:
                    # self._file = open(...): obligation escapes.
                    self.scan(value)
                    return
        if name_target is not None and isinstance(value, ast.Call):
            mode = self._open_call_mode(value)
            if mode is not None:
                self._register_open(name_target, value, mode)
                return
            called = dotted_name(value.func)
            if called == "os.open":
                self._fd_aliases[name_target] = "os.open:%s" % (
                    expr_text(value.args[0]) if value.args else "?"
                )
                self._saw_dir_open = True
                self.emit(
                    "open",
                    name_target,
                    stmt.lineno,
                    stmt.col_offset,
                    detail="os.open",
                )
                return
        if name_target is not None:
            # fd = fh.fileno()
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "fileno"
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in self._handles
            ):
                self._fd_aliases[name_target] = value.func.value.id
                return
            # tmp = path + ".suffix"
            suffix = _temp_suffix_of(value)
            if suffix is not None:
                self._temp_paths[name_target] = suffix
                return
            # Reader-visibility taint.
            if self._is_visible_source(value):
                if isinstance(
                    value, (ast.ListComp, ast.GeneratorExp)
                ) or (
                    isinstance(value, ast.Call)
                    and dotted_name(value.func) in ("list", "tuple", "sorted")
                ):
                    self._visible_collections.add(name_target)
                else:
                    self._visible.add(name_target)
        self.scan(value)

    def _track_for_target(self, stmt: ast.For) -> None:
        if not isinstance(stmt.target, ast.Name):
            return
        iter_src = stmt.iter
        if self._is_shared_collection(iter_src) or (
            isinstance(iter_src, ast.Name)
            and iter_src.id in self._visible_collections
        ):
            self._visible.add(stmt.target.id)
        elif isinstance(iter_src, ast.Call):
            called = dotted_name(iter_src.func)
            if called in ("list", "reversed", "sorted") and iter_src.args:
                inner = iter_src.args[0]
                if self._is_shared_collection(inner) or (
                    isinstance(inner, ast.Name)
                    and inner.id in self._visible_collections
                ):
                    self._visible.add(stmt.target.id)

    # -- expression scanning -----------------------------------------------------

    def visit_call(self, call: ast.Call) -> None:
        func = call.func
        called = dotted_name(func)
        line, col = call.lineno, call.col_offset

        # endswith sweep registration: name.endswith(".tmp"/(...)).
        if isinstance(func, ast.Attribute) and func.attr == "endswith":
            for suffix in _string_constants(call.args):
                self.summary.sweep_suffixes.add(suffix)
            return

        if called is not None:
            bare = called.split(".")[-1]
            if called.startswith("os."):
                if bare == "fsync":
                    self._visit_fsync(call, line, col)
                    return
                if bare in _OS_EFFECTS:
                    kind = _OS_EFFECTS[bare]
                    target = (
                        expr_text(call.args[-1])
                        if kind == "replace" and len(call.args) >= 2
                        else expr_text(call.args[0])
                        if call.args
                        else "?"
                    )
                    detail = (
                        expr_text(call.args[0])
                        if kind == "replace" and call.args
                        else ""
                    )
                    self.emit(kind, target, line, col, detail=detail)
                    return
                if bare == "open":
                    self._saw_dir_open = True
                    return
                if bare == "pread":
                    self.emit(
                        "pread",
                        expr_text(call.args[0]) if call.args else "?",
                        line,
                        col,
                    )
                    return

        # Handle-method effects: fh.write / fh.flush / fh.close, and
        # reader-visible obj.close() / obj.remove().
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            owner = func.value.id
            method = func.attr
            if owner in self._handles:
                handle = self._handles[owner]
                if method == "write":
                    handle.writes += 1
                    handle.last_write_line = line
                    handle.fsynced_after_write = False
                    self.emit("write", owner, line, col)
                    return
                if method == "flush":
                    self.emit("flush", owner, line, col)
                    return
                if method == "close":
                    handle.closed_line = line
                    self.emit("close", owner, line, col)
                    return
            if owner in self._visible:
                if method == "close":
                    self.emit(
                        "close",
                        owner,
                        line,
                        col,
                        detail="reader-visible",
                    )
                    return
                if method == "remove":
                    self.emit(
                        "unlink",
                        owner,
                        line,
                        col,
                        detail="reader-visible",
                    )
                    return

        # Temp-suffix creation via open(tmp_var, "w...").
        mode = self._open_call_mode(call)
        if mode is not None and call.args:
            first = call.args[0]
            if (
                isinstance(first, ast.Name)
                and first.id in self._temp_paths
            ):
                self.summary.temp_suffixes.append(
                    (self._temp_paths[first.id], line)
                )
            else:
                suffix = _temp_suffix_of(first)
                if suffix is not None:
                    self.summary.temp_suffixes.append((suffix, line))
            # An un-named open (not assigned/with-bound) is still an
            # open effect.
            self.emit("open", expr_text(first), line, col, detail=mode)
            for arg in call.args:
                self._mark_escapes(arg)
            return

        # Resolved project call → call marker for inlining.
        callees = self.resolved_callees(call)
        if callees:
            self.emit_call(call, callees)
        # Any handle passed onward escapes its durability obligation.
        for arg in call.args:
            self._mark_escapes(arg)
        for keyword in call.keywords:
            if keyword.value is not None:
                self._mark_escapes(keyword.value)

    def _visit_fsync(self, call: ast.Call, line: int, col: int) -> None:
        arg = call.args[0] if call.args else None
        # os.fsync(fh.fileno())
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "fileno"
            and isinstance(arg.func.value, ast.Name)
        ):
            owner = arg.func.value.id
            handle = self._handles.get(owner)
            if handle is not None:
                handle.fsynced_after_write = True
            self.emit("fsync", owner, line, col)
            return
        if isinstance(arg, ast.Name):
            alias = self._fd_aliases.get(arg.id)
            if alias is not None and alias.startswith("os.open:"):
                self._saw_fsync_of_dir_fd = True
                self.emit(
                    "dirfsync", alias.split(":", 1)[1], line, col
                )
                return
            if alias is not None and alias in self._handles:
                self._handles[alias].fsynced_after_write = True
                self.emit("fsync", alias, line, col)
                return
        self.emit("fsync", expr_text(arg) if arg else "?", line, col)

    # -- helpers -----------------------------------------------------------------

    def _open_call_mode(self, call: ast.Call) -> Optional[str]:
        """The mode string when ``call`` is a builtin ``open``."""
        called = dotted_name(call.func)
        if called not in _OPEN_NAMES:
            return None
        mode = "r"
        if len(call.args) >= 2 and isinstance(
            call.args[1], ast.Constant
        ):
            if isinstance(call.args[1].value, str):
                mode = call.args[1].value
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(
                keyword.value, ast.Constant
            ):
                if isinstance(keyword.value.value, str):
                    mode = keyword.value.value
        return mode

    def _register_open(
        self, name: str, call: ast.Call, mode: str
    ) -> None:
        writable = bool(set(mode) & _WRITE_MODE_CHARS)
        path_text = expr_text(call.args[0]) if call.args else ""
        if writable:
            self._handles[name] = HandleState(
                name=name,
                opened_line=call.lineno,
                mode=mode,
                path_text=path_text,
            )
        first = call.args[0] if call.args else None
        if first is not None:
            if isinstance(first, ast.Name) and first.id in self._temp_paths:
                self.summary.temp_suffixes.append(
                    (self._temp_paths[first.id], call.lineno)
                )
            else:
                suffix = _temp_suffix_of(first)
                if suffix is not None and writable:
                    self.summary.temp_suffixes.append(
                        (suffix, call.lineno)
                    )
        self.emit(
            "open", name, call.lineno, call.col_offset, detail=mode
        )

    def _is_shared_collection(self, expr: ast.expr) -> bool:
        return bool(self._lock_attrs) and self_attr(expr) is not None

    def _is_visible_source(self, expr: ast.expr) -> bool:
        """Whether ``expr`` draws objects out of a shared collection."""
        if isinstance(expr, ast.Subscript):
            return self._is_shared_collection(expr.value)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            for gen in expr.generators:
                if self._is_shared_collection(gen.iter):
                    return True
            # [self._runs[i] for i in picked]
            for node in ast.walk(expr.elt):
                if isinstance(
                    node, ast.Subscript
                ) and self._is_shared_collection(node.value):
                    return True
            return False
        if isinstance(expr, ast.Call):
            called = dotted_name(expr.func)
            if called in ("list", "sorted", "tuple") and expr.args:
                return self._is_shared_collection(expr.args[0])
            # run = self._runs.pop()
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "pop"
                and self._is_shared_collection(expr.func.value)
            ):
                return True
        return False

    def _note_attr_read_in(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and self_attr(node) is not None
            ):
                self.summary.attr_reads.setdefault(
                    node.attr, node.lineno
                )

    def _mark_escapes(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self._handles:
                # os.fsync(fh.fileno()) is handled before this point;
                # anything else that consumes the handle takes the
                # durability obligation with it.
                self._handles[node.id].escaped = True


# -- small AST utilities -----------------------------------------------------


def _string_constants(args: Sequence[ast.expr]) -> List[str]:
    out: List[str] = []
    for arg in args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
        elif isinstance(arg, ast.Tuple):
            for element in arg.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    out.append(element.value)
    return out


def _temp_suffix_of(expr: ast.expr) -> Optional[str]:
    """The temp-suffix literal in ``path + ".tmp"`` shapes, if any.

    A suffix is temp-shaped when it starts with ``.`` or ``-`` and
    names a scratch artifact (``tmp``/``temp``/``part``/``partial``/
    ``new``/``swap`` fragments) — the files a crash strands and a
    recovery sweep must remove.
    """
    constant: Optional[str] = None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        right = expr.right
        if isinstance(right, ast.Constant) and isinstance(
            right.value, str
        ):
            constant = right.value
    elif isinstance(expr, ast.JoinedStr):
        last = expr.values[-1] if expr.values else None
        if isinstance(last, ast.Constant) and isinstance(
            last.value, str
        ):
            constant = last.value
    if constant is None:
        return None
    if not constant.startswith((".", "-")):
        return None
    lowered = constant.lower()
    if any(
        fragment in lowered
        for fragment in ("tmp", "temp", "part", "swap", "new")
    ):
        return constant
    return None
