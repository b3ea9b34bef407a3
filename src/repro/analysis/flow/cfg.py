"""Per-function control-flow graphs over ``ast``.

The pattern rules see one statement at a time; the flow rules (R006,
R007, R011–R015) need to know *which paths* a protocol obligation
survives.
This module lowers one function body into a statement-level CFG with
explicit exits:

* ``entry`` / ``exit`` — the function's single entry and its normal
  (return / fall-off) exit;
* ``raise`` — the exceptional exit: every statement that can raise gets
  an ``exc`` edge towards the innermost handler, and exceptions that no
  handler catches end here.

Edge kinds are ``next`` (fall-through), ``true`` / ``false`` (the two
arms of a branch or loop test), ``exc`` (exception propagation) and
``back`` (a loop's back edge).

``finally`` blocks run on *every* continuation — normal fall-through,
exception, ``return``, ``break`` and ``continue`` — and each
continuation leaves the block towards a different place, so the builder
*instantiates* the ``finally`` body once per continuation that actually
occurs.  Each instance is announced by a ``finally`` marker node whose
label carries the continuation tag (``finally:LINE:exc`` etc.), which is
also what the witness traces show.  ``with`` blocks are lowered the same
way: a ``with-enter`` node, then one ``with-exit`` instance per
continuation, so context-managed pins and locks release on exception
edges by construction.

Exception edges leave a statement *before* its effects are applied
(the engine re-applies its releases, which cannot fail, and its
ownership transfers, see :mod:`.engine`), which is why the edge departs
the statement node itself rather than a duplicated post-state node.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..lint import callee_name
from .summaries import NO_FAIL_CALLEES

__all__ = ["CFG", "CFGNode", "build_cfg", "MAX_NODES"]

#: Functions lowering to more nodes than this are skipped (analysis
#: reports nothing rather than timing out); no function in the repo
#: comes within an order of magnitude of it.
MAX_NODES = 4000

#: A pending edge: (source node id, edge kind) waiting for its target.
_Pend = tuple[int, str]


@dataclass
class CFGNode:
    """One CFG node.  ``kind`` is one of ``entry`` / ``exit`` / ``raise``
    / ``stmt`` / ``branch`` / ``loop`` / ``dispatch`` / ``except`` /
    ``finally`` / ``with-enter`` / ``with-exit``."""

    nid: int
    kind: str
    line: int
    label: str
    ast_node: ast.AST | None = None
    #: For ``branch`` / ``loop`` nodes: the test (or iterable) expression.
    test: ast.expr | None = None
    #: For ``with-enter`` / ``with-exit`` nodes: the owning With stmt.
    with_stmt: ast.With | ast.AsyncWith | None = None


@dataclass
class CFG:
    name: str
    fn: ast.AST
    nodes: dict[int, CFGNode] = field(default_factory=dict)
    succs: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2
    too_big: bool = False

    def edges(self) -> set[tuple[int, str, int]]:
        return {(src, kind, dst)
                for src, outs in self.succs.items()
                for dst, kind in outs}

    def edge_labels(self) -> set[tuple[str, str, str]]:
        """Edges addressed by node label — the stable form tests assert
        against (duplicated ``finally`` statements share labels, which
        collapses identical edges; asserting membership still works)."""
        return {(self.nodes[s].label, kind, self.nodes[d].label)
                for s, kind, d in self.edges()}

    def labels(self) -> set[str]:
        return {node.label for node in self.nodes.values()}


class _Loop:
    __slots__ = ("head", "break_sinks")

    def __init__(self, head: int) -> None:
        self.head = head
        self.break_sinks: list[_Pend] = []


class _Cleanup:
    """A frame whose exceptions route to ``exc_entry``.  ``payload_kind``
    says what a ``return`` / ``break`` / ``continue`` unwind must
    instantiate on the way out: a ``finally`` body, a ``with`` exit, or
    nothing (``handlers`` — an except clause protects but never runs on
    non-exception unwinds)."""

    __slots__ = ("payload_kind", "payload", "exc_entry", "line")

    def __init__(self, payload_kind: str, payload: object,
                 exc_entry: int, line: int) -> None:
        self.payload_kind = payload_kind
        self.payload = payload
        self.exc_entry = exc_entry
        self.line = line


#: Statements lowered without inspecting their (non-existent) bodies.
_CATCH_ALL = ("BaseException", "Exception")


def _can_raise(node: ast.AST | None) -> bool:
    """Whether evaluating *node* may raise: calls, subscripts, awaits,
    raises, asserts — and yields, where ``GeneratorExit``/``throw()``
    may arrive.  A call to one of the :data:`NO_FAIL_CALLEES` (a
    release, a dirty-mark, a view constructor) raises only through its
    arguments; the engine relies on releases not failing to apply them
    on exception edges, and without the exemption every multi-release
    ``finally`` body would report the later releases as leaked on the
    earlier ones' impossible exception paths."""
    if node is None:
        return False
    stack = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(sub, ast.Call) \
                and callee_name(sub) in NO_FAIL_CALLEES:
            stack.extend(sub.args)
            stack.extend(k.value for k in sub.keywords)
            continue
        if isinstance(sub, (ast.Call, ast.Subscript, ast.Raise, ast.Assert,
                            ast.Await, ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(sub))
    return False


#: Calls that never return normally: they raise a control exception
#: (``pytest.skip`` raises ``Skipped``) or terminate the interpreter.
#: A bare call statement to one of these gets only its exception edge.
_NORETURN_CALLEES = {"skip", "fail", "xfail", "importorskip_failure"}


def _never_returns(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return False
    name = callee_name(stmt.value)
    if name in _NORETURN_CALLEES:
        return True
    # sys.exit / os._exit, but not a bare exit() builtin shadow
    if name in ("exit", "_exit"):
        func = stmt.value.func
        return isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) \
            and func.value.id in ("sys", "os")
    return False


def _catches_everything(handlers: list[ast.ExceptHandler]) -> bool:
    for handler in handlers:
        if handler.type is None:
            return True
        names = [handler.type] if not isinstance(handler.type, ast.Tuple) \
            else list(handler.type.elts)
        for expr in names:
            if isinstance(expr, ast.Name) and expr.id in _CATCH_ALL:
                return True
            if isinstance(expr, ast.Attribute) and expr.attr in _CATCH_ALL:
                return True
    return False


class _Builder:
    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.fn = fn
        self.cfg = CFG(name=fn.name, fn=fn)
        self.frames: list[_Loop | _Cleanup] = []
        self._next_id = 0
        self.cfg.entry = self._node("entry", fn.lineno, "entry")
        self.cfg.exit = self._node("exit", fn.lineno, "exit")
        self.cfg.raise_exit = self._node("raise", fn.lineno, "raise")

    # -- plumbing ----------------------------------------------------------

    def _node(self, kind: str, line: int, label: str, *,
              ast_node: ast.AST | None = None,
              test: ast.expr | None = None,
              with_stmt: ast.With | ast.AsyncWith | None = None) -> int:
        nid = self._next_id
        self._next_id += 1
        if nid > MAX_NODES:
            self.cfg.too_big = True
            raise _TooBig()
        self.cfg.nodes[nid] = CFGNode(nid, kind, line, label,
                                      ast_node=ast_node, test=test,
                                      with_stmt=with_stmt)
        self.cfg.succs[nid] = []
        return nid

    def _edge(self, src: int, dst: int, kind: str) -> None:
        pair = (dst, kind)
        if pair not in self.cfg.succs[src]:
            self.cfg.succs[src].append(pair)

    def _wire(self, pend: list[_Pend], dst: int) -> None:
        for src, kind in pend:
            self._edge(src, dst, kind)

    def _exc_target(self) -> int:
        for frame in reversed(self.frames):
            if isinstance(frame, _Cleanup):
                return frame.exc_entry
        return self.cfg.raise_exit

    # -- unwinding through cleanups ---------------------------------------

    def _unwind(self, pend: list[_Pend], stop: int, tag: str) -> list[_Pend]:
        """Instantiate every cleanup in ``frames[stop:]`` (innermost
        first) on the way out of the region, returning the surviving
        pending edges."""
        saved = self.frames
        try:
            for idx in range(len(saved) - 1, stop - 1, -1):
                frame = saved[idx]
                if not isinstance(frame, _Cleanup) \
                        or frame.payload_kind == "handlers":
                    continue
                if not pend:
                    return pend
                self.frames = saved[:idx]
                if frame.payload_kind == "finally":
                    marker = self._node(
                        "finally", frame.line,
                        f"finally:{frame.line}:{tag}")
                    self._wire(pend, marker)
                    assert isinstance(frame.payload, list)
                    pend = self._block(frame.payload, [(marker, "next")])
                else:  # with
                    stmt = frame.payload
                    assert isinstance(stmt, (ast.With, ast.AsyncWith))
                    out = self._node(
                        "with-exit", frame.line,
                        f"with-exit:{frame.line}:{tag}", with_stmt=stmt)
                    self._wire(pend, out)
                    pend = [(out, "next")]
        finally:
            self.frames = saved
        return pend

    # -- lowering ----------------------------------------------------------

    def build(self) -> CFG:
        pend = self._block(self.fn.body, [(self.cfg.entry, "next")])
        self._wire(pend, self.cfg.exit)
        return self.cfg

    def _block(self, stmts: list[ast.stmt],
               pend: list[_Pend]) -> list[_Pend]:
        for stmt in stmts:
            if not pend:
                break  # unreachable tail
            pend = self._stmt(stmt, pend)
        return pend

    def _stmt(self, stmt: ast.stmt, pend: list[_Pend]) -> list[_Pend]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, pend)
        if isinstance(stmt, ast.While):
            return self._while(stmt, pend)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, pend)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, pend)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, pend)
        if isinstance(stmt, ast.Return):
            node = self._simple(stmt, pend, raises=_can_raise(stmt.value))
            out = self._unwind([(node, "next")], 0, "return")
            self._wire(out, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._simple(stmt, pend, raises=False)
            self._edge(node, self._exc_target(), "exc")
            return []
        if isinstance(stmt, ast.Break):
            node = self._simple(stmt, pend, raises=False)
            idx = self._loop_index()
            out = self._unwind([(node, "next")], idx + 1, "break")
            loop = self.frames[idx]
            assert isinstance(loop, _Loop)
            loop.break_sinks.extend(out)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._simple(stmt, pend, raises=False)
            idx = self._loop_index()
            out = self._unwind([(node, "next")], idx + 1, "continue")
            loop = self.frames[idx]
            assert isinstance(loop, _Loop)
            for src, kind in out:
                self._edge(src, loop.head, "back")
            return []
        if _never_returns(stmt):
            node = self._simple(stmt, pend, raises=False)
            self._edge(node, self._exc_target(), "exc")
            return []
        # plain statement (incl. nested def/class, which are opaque)
        raises = not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            and _can_raise(stmt)
        node = self._simple(stmt, pend, raises=raises)
        return [(node, "next")]

    def _loop_index(self) -> int:
        for idx in range(len(self.frames) - 1, -1, -1):
            if isinstance(self.frames[idx], _Loop):
                return idx
        raise SyntaxError("break/continue outside loop")

    def _simple(self, stmt: ast.stmt, pend: list[_Pend], *,
                raises: bool) -> int:
        node = self._node("stmt", stmt.lineno, f"stmt:{stmt.lineno}",
                          ast_node=stmt)
        self._wire(pend, node)
        if raises:
            self._edge(node, self._exc_target(), "exc")
        return node

    def _if(self, stmt: ast.If, pend: list[_Pend]) -> list[_Pend]:
        branch = self._node("branch", stmt.lineno, f"branch:{stmt.lineno}",
                            ast_node=stmt, test=stmt.test)
        self._wire(pend, branch)
        if _can_raise(stmt.test):
            self._edge(branch, self._exc_target(), "exc")
        body_out = self._block(stmt.body, [(branch, "true")])
        else_out = self._block(stmt.orelse, [(branch, "false")]) \
            if stmt.orelse else [(branch, "false")]
        return body_out + else_out

    def _while(self, stmt: ast.While, pend: list[_Pend]) -> list[_Pend]:
        head = self._node("loop", stmt.lineno, f"loop:{stmt.lineno}",
                          ast_node=stmt, test=stmt.test)
        self._wire(pend, head)
        if _can_raise(stmt.test):
            self._edge(head, self._exc_target(), "exc")
        loop = _Loop(head)
        self.frames.append(loop)
        try:
            body_out = self._block(stmt.body, [(head, "true")])
        finally:
            self.frames.pop()
        for src, kind in body_out:
            self._edge(src, head,
                       kind if kind in ("true", "false") else "back")
        always_true = isinstance(stmt.test, ast.Constant) \
            and bool(stmt.test.value)
        if always_true:
            out: list[_Pend] = []
        elif stmt.orelse:
            out = self._block(stmt.orelse, [(head, "false")])
        else:
            out = [(head, "false")]
        return out + loop.break_sinks

    def _for(self, stmt: ast.For | ast.AsyncFor,
             pend: list[_Pend]) -> list[_Pend]:
        head = self._node("loop", stmt.lineno, f"loop:{stmt.lineno}",
                          ast_node=stmt, test=stmt.iter)
        self._wire(pend, head)
        if _can_raise(stmt.iter):
            self._edge(head, self._exc_target(), "exc")
        loop = _Loop(head)
        self.frames.append(loop)
        try:
            body_out = self._block(stmt.body, [(head, "true")])
        finally:
            self.frames.pop()
        for src, kind in body_out:
            self._edge(src, head,
                       kind if kind in ("true", "false") else "back")
        out = self._block(stmt.orelse, [(head, "false")]) \
            if stmt.orelse else [(head, "false")]
        return out + loop.break_sinks

    def _with(self, stmt: ast.With | ast.AsyncWith,
              pend: list[_Pend]) -> list[_Pend]:
        enter = self._node("with-enter", stmt.lineno,
                           f"with-enter:{stmt.lineno}", with_stmt=stmt)
        self._wire(pend, enter)
        # entering may raise *before* the manager is active
        if any(_can_raise(item.context_expr) for item in stmt.items):
            self._edge(enter, self._exc_target(), "exc")
        exc_exit = self._node("with-exit", stmt.lineno,
                              f"with-exit:{stmt.lineno}:exc",
                              with_stmt=stmt)
        self._edge(exc_exit, self._exc_target(), "exc")
        self.frames.append(_Cleanup("with", stmt, exc_exit, stmt.lineno))
        try:
            body_out = self._block(stmt.body, [(enter, "next")])
        finally:
            self.frames.pop()
        if not body_out:
            return []
        normal = self._node("with-exit", stmt.lineno,
                            f"with-exit:{stmt.lineno}:normal",
                            with_stmt=stmt)
        self._wire(body_out, normal)
        return [(normal, "next")]

    def _try(self, stmt: ast.Try, pend: list[_Pend]) -> list[_Pend]:
        has_final = bool(stmt.finalbody)
        final_frame: _Cleanup | None = None
        if has_final:
            # the shared exception-path instance of the finally body:
            # built with the *outer* frame stack, so its own exceptions
            # and its continuation escape to the enclosing context
            marker = self._node("finally", stmt.lineno,
                                f"finally:{stmt.lineno}:exc")
            final_out = self._block(stmt.finalbody, [(marker, "next")])
            for src, kind in final_out:
                # the exception keeps propagating after this instance,
                # but the body itself ran to completion — keep each
                # exit's own edge kind (a ``false`` from a trailing
                # branch must stay refinable, or guarded releases like
                # ``if buf is not None: unpin(buf)`` look skippable)
                self._edge(src, self._exc_target(), kind)
            final_frame = _Cleanup("finally", stmt.finalbody, marker,
                                   stmt.lineno)
            self.frames.append(final_frame)

        dispatch: int | None = None
        if stmt.handlers:
            dispatch = self._node("dispatch", stmt.lineno,
                                  f"dispatch:{stmt.lineno}")
            if not _catches_everything(stmt.handlers):
                # an exception may match no handler and keep propagating
                self._edge(dispatch, self._exc_target(), "exc")
            self.frames.append(_Cleanup("handlers", None, dispatch,
                                        stmt.lineno))
        try:
            body_out = self._block(stmt.body, pend)
        finally:
            if dispatch is not None:
                self.frames.pop()

        # orelse runs after a normal body, protected by finally only
        after: list[_Pend] = self._block(stmt.orelse, body_out) \
            if stmt.orelse else body_out

        # handlers run with the dispatch frame popped (their own
        # exceptions go to the finally / outer context, not back in)
        for handler in stmt.handlers:
            assert dispatch is not None
            caught = self._node("except", handler.lineno,
                                f"except:{handler.lineno}",
                                ast_node=handler)
            self._edge(dispatch, caught, "next")
            after += self._block(handler.body, [(caught, "next")])

        if final_frame is not None:
            self.frames.pop()
        if has_final and after:
            marker = self._node("finally", stmt.lineno,
                                f"finally:{stmt.lineno}:normal")
            self._wire(after, marker)
            after = self._block(stmt.finalbody, [(marker, "next")])
        return after


class _TooBig(Exception):
    pass


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Lower *fn* (one function, nested defs opaque) into a CFG.  On
    pathological size the returned CFG has ``too_big`` set and holds
    whatever was built so far — callers should skip it."""
    builder = _Builder(fn)
    try:
        return builder.build()
    except _TooBig:
        return builder.cfg
