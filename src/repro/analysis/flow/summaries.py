"""Per-file interprocedural summaries for the flow engine.

The flow rules analyse one function at a time, but the repo's protocol
obligations routinely cross helper boundaries: ``_read_meta()`` returns
a pinned buffer the *caller* must unpin, ``_wait()`` blocks
transitively, ``_resolve_stale_backup()`` marks frames dirty on the
caller's behalf.  This module computes a summary per same-file function
(reusing the call-graph closure style R006 established) so the engine
can treat those calls precisely instead of conservatively:

* ``dirties`` / ``may_block`` — reaches dirty evidence / a blocking
  call, directly or through same-file callees;
* ``returns_pin`` (+ tuple position and nullability) — the return value
  carries a pinned buffer, so callers inherit the unpin obligation;
* ``borrows`` — no parameter escapes the helper, so passing a buffer in
  does not transfer its pin obligation;
* ``unpin_helpers`` — the helper releases a parameter's pin.

Dispatch is same-file only (bare ``helper()`` or ``self.helper()`` /
``cls.helper()``); cross-file calls fall back to the *well-known
contract table* below, which names the repo-wide idioms every subclass
honours (``_pin`` returns ``(buf, view)``, ``_alloc`` returns
``(page_no, buf, view)`` born dirty, ``_check_child`` borrows, ...).
The table is part of the protocol spec, not a heuristic: a helper that
breaks its row is itself a protocol bug.
"""

from __future__ import annotations

import ast

from ..lint import callee_name, iter_functions, walk_function_scope
from ..rules.latches import BLOCKING_CALLEES, _local_callee
from ..rules.mutation import DIRTY_EVIDENCE_CALLEES
from ..rules.pins import BORROWING_CALLEES, UNPIN_CALLEES

__all__ = [
    "FileSummaries",
    "PIN_RETURNERS",
    "BORROW_NAMES",
    "base_name",
    "is_borrowing_call",
]

#: Well-known pin-returning helpers: name -> (tuple positions holding
#: the pinned buffer, or None when the whole value is/wraps it;
#: may the call return None instead).  Elements *after* the pin
#: position are derived views sharing the buffer's fact.
PIN_RETURNERS: dict[str, tuple[tuple[int, ...] | None, bool]] = {
    "pin": (None, False),
    "pin_meta": (None, False),
    "allocate_virtual": (None, False),
    "_pin": ((0,), False),          # (buf, view)
    "_pin_node": ((0,), False),     # (buf, node)
    "_read_meta": ((0,), False),    # (buf, meta)
    "_alloc": ((1,), False),        # (page_no, buf, view) — born dirty
}

#: Cross-file helpers and builtins that *borrow* their arguments: the
#: caller keeps the pin obligation, so the fact does not escape.
BORROW_NAMES: set[str] = BORROWING_CALLEES | {
    # page/view constructors and validators
    "node_of", "NodeView", "MetaView", "valid_magic",
    "is_zeroed", "try_read_header", "tokens_match", "token_older",
    "copy_page",
    # repo-wide read-only hooks on descent paths
    "_check_child", "_vet_intra_page", "_before_page_update",
    "schedule_point",
    # builtins that cannot smuggle a pin obligation away
    "len", "isinstance", "issubclass", "print", "repr", "str", "bytes",
    "bytearray", "int", "bool", "float", "range", "min", "max",
    "sorted", "reversed", "enumerate", "zip", "hash", "id", "getattr",
    "hasattr", "setattr", "abs", "sum", "any", "all", "next", "iter",
    "format", "memoryview", "type", "vars", "divmod", "round",
}


def base_name(expr: ast.AST) -> str | None:
    """Leftmost name of a ``Name`` / ``Attribute`` / ``Subscript``
    chain: ``entry.buffer.data`` -> ``entry``; ``self``/``cls`` -> None
    (attributes of self are not locals the analysis tracks)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name) and expr.id not in ("self", "cls"):
        return expr.id
    return None


def _scope_walk(fn: ast.AST):
    yield from walk_function_scope(fn)


def _calls(fn: ast.AST) -> list[ast.Call]:
    return [n for n in _scope_walk(fn) if isinstance(n, ast.Call)]


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = [a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


class FileSummaries:
    """Summaries for every function defined in one parsed file."""

    def __init__(self, tree: ast.AST) -> None:
        self.local_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
        self.local_fns = {fn.name: fn for fn in iter_functions(tree)}
        self._dirties = self._closure(self._dirties_directly)
        self._may_block = self._closure(self._blocks_directly)
        self.unpin_helpers = {
            name for name, fn in self.local_fns.items()
            if self._unpins_param(fn)
        }
        self.borrowers = self._borrow_fixpoint()
        self._pin_shapes = self._returns_pin_fixpoint()

    # -- closure plumbing (R006 style) ------------------------------------

    def _closure(self, base) -> set[str]:
        tainted = {name for name, fn in self.local_fns.items() if base(fn)}
        changed = True
        while changed:
            changed = False
            for name, fn in self.local_fns.items():
                if name in tainted:
                    continue
                for call in _calls(fn):
                    callee = _local_callee(call, self.local_fns)
                    if callee in tainted:
                        tainted.add(name)
                        changed = True
                        break
        return tainted

    @staticmethod
    def _dirties_directly(fn: ast.AST) -> bool:
        return any(callee_name(c) in DIRTY_EVIDENCE_CALLEES
                   for c in _calls(fn))

    @staticmethod
    def _blocks_directly(fn: ast.AST) -> bool:
        return any(callee_name(c) in BLOCKING_CALLEES for c in _calls(fn))

    @staticmethod
    def _unpins_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        params = _param_names(fn)
        # A param rebound inside the body no longer names the caller's
        # frame by the time it is unpinned (the walk-and-release idiom:
        # pin the next page, rebind, release your own pin), so only
        # never-reassigned params transfer the release to the caller.
        rebound: set[str] = set()
        for node in _scope_walk(fn):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        rebound.add(sub.id)
        stable = params - rebound
        for call in _calls(fn):
            if callee_name(call) in UNPIN_CALLEES:
                for arg in call.args:
                    name = base_name(arg)
                    if name in stable:
                        return True
        return False

    # -- borrow analysis ---------------------------------------------------

    def _borrow_fixpoint(self) -> set[str]:
        """Greatest fixpoint: assume every local helper borrows, then
        strip any whose parameter escapes given the current set."""
        borrowers = set(self.local_fns)
        changed = True
        while changed:
            changed = False
            for name in list(borrowers):
                if self._param_escapes(self.local_fns[name], borrowers):
                    borrowers.discard(name)
                    changed = True
        return borrowers

    def _param_escapes(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                       borrowers: set[str]) -> bool:
        params = _param_names(fn)
        if not params:
            return False
        for node in _scope_walk(fn):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None and self._mentions(value, params):
                    return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and self._mentions(node.value, params):
                        return True
            elif isinstance(node, ast.Call):
                cname = callee_name(node)
                if cname is None:
                    if self._arg_mentions(node, params):
                        return True
                    continue
                if cname in BORROW_NAMES or cname in PIN_RETURNERS \
                        or cname in UNPIN_CALLEES:
                    continue
                if _local_callee(node, self.local_fns) in borrowers:
                    continue
                if self._arg_mentions(node, params):
                    return True
        return False

    @staticmethod
    def _mentions(expr: ast.AST, params: set[str]) -> bool:
        return any(isinstance(n, ast.Name) and n.id in params
                   for n in ast.walk(expr))

    @staticmethod
    def _arg_mentions(call: ast.Call, params: set[str]) -> bool:
        for arg in list(call.args) + [k.value for k in call.keywords]:
            if base_name(arg) in params:
                return True
        return False

    # -- pin-returning helpers --------------------------------------------

    def _returns_pin_fixpoint(self) -> dict[str, tuple[tuple[int, ...] | None, bool]]:
        shapes: dict[str, tuple[tuple[int, ...] | None, bool]] = {}
        changed = True
        while changed:
            changed = False
            for name, fn in self.local_fns.items():
                if name in shapes:
                    continue
                shape = self._pin_shape_of(fn, shapes)
                if shape is not None:
                    shapes[name] = shape
                    changed = True
        return shapes

    def _pin_shape_of(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                      shapes: dict) -> tuple[tuple[int, ...] | None, bool] | None:
        pinned: set[str] = set()
        for node in _scope_walk(fn):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                cname = callee_name(node.value)
                if cname in PIN_RETURNERS or cname in shapes:
                    for target in node.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                pinned.add(sub.id)

        def carries_pin(expr: ast.AST) -> bool:
            # Only expressions that evaluate to (or wrap) the buffer
            # itself carry the obligation out: a bare pinned name, a
            # pin-returning call, or a wrapper constructed around a
            # pinned name.  A field read off a pinned view
            # (``meta.root``, ``lview.child_at(...)``) is a scalar the
            # helper's own finally already covered.
            if isinstance(expr, ast.Name):
                return expr.id in pinned
            if isinstance(expr, ast.IfExp):
                return carries_pin(expr.body) or carries_pin(expr.orelse)
            if isinstance(expr, ast.Call):
                cname = callee_name(expr)
                if cname in PIN_RETURNERS or cname in shapes:
                    return True
                if cname in BORROW_NAMES or cname in UNPIN_CALLEES:
                    return False
                args = list(expr.args) + [k.value for k in expr.keywords]
                return any(isinstance(a, ast.Name) and a.id in pinned
                           for a in args)
            return False

        positions: set[int] = set()
        whole = False
        maybe_none = False
        found = False
        for node in _scope_walk(fn):
            if not isinstance(node, ast.Return):
                continue
            if node.value is None or (isinstance(node.value, ast.Constant)
                                      and node.value.value is None):
                maybe_none = True
                continue
            if isinstance(node.value, ast.Tuple):
                for idx, elt in enumerate(node.value.elts):
                    if carries_pin(elt):
                        positions.add(idx)
                        found = True
            elif carries_pin(node.value):
                whole = True
                found = True
        if not found:
            return None
        if whole or not positions:
            return (None, maybe_none)
        return (tuple(sorted(positions)), maybe_none)

    # -- call-site queries (same-file dispatch only) ----------------------

    def dirties(self, call: ast.Call) -> bool:
        return _local_callee(call, self.local_fns) in self._dirties

    def may_block(self, call: ast.Call) -> bool:
        return _local_callee(call, self.local_fns) in self._may_block

    def pin_shape(self, call: ast.Call) -> tuple[tuple[int, ...] | None, bool] | None:
        local = _local_callee(call, self.local_fns)
        if local is None:
            return None
        return self._pin_shapes.get(local)


def is_borrowing_call(call: ast.Call, summ: FileSummaries) -> bool:
    """Whether this call leaves its arguments' pin obligations with the
    caller (so the facts do not escape)."""
    name = callee_name(call)
    if name is None:
        return False
    if name in BORROW_NAMES or name in PIN_RETURNERS \
            or name in UNPIN_CALLEES:
        return True
    return _local_callee(call, summ.local_fns) in summ.borrowers
