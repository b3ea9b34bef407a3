"""The repo's protocol naming conventions, and per-file interprocedural
summaries for the flow engine.

The flow rules key on how the repo spells its protocol operations —
``unpin`` / ``_unpin`` release a pin, a receiver named ``*latch*``
holds latches and one named ``*split*`` the split lock, ``mark_dirty``
/ ``_dirty`` are dirty evidence.  The first half of this module is that
vocabulary, in one place.

The flow rules analyse one function at a time, but the repo's protocol
obligations routinely cross helper boundaries: ``_read_meta()`` returns
a pinned buffer the *caller* must unpin, ``_wait()`` blocks
transitively, ``_resolve_stale_backup()`` marks frames dirty on the
caller's behalf.  The second half computes a summary per same-file
function (a call-graph closure) so the engine can treat those calls
precisely instead of conservatively:

* ``dirties`` / ``may_block`` — reaches dirty evidence / a blocking
  call, directly or through same-file callees;
* ``may_split`` / ``takes_split`` — reaches a split-capable tree
  operation / a split-lock acquisition (R006);
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

from ..lint import (
    FileContext,
    callee_name,
    dotted_name,
    iter_functions,
    walk_function_scope,
)

__all__ = [
    "FileSummaries",
    "PIN_RETURNERS",
    "BORROW_NAMES",
    "base_name",
    "is_borrowing_call",
]

# ---------------------------------------------------------------------------
# naming conventions
# ---------------------------------------------------------------------------

UNPIN_CALLEES = {"unpin", "_unpin", "unpin_path", "_unpin_path"}

LATCH_ACQUIRES = {"acquire_read", "acquire_write"}
LATCH_RELEASES = {"release", "release_all"}
#: Calls that may block the calling thread (R014 under a read latch).
BLOCKING_CALLEES = {"sync", "fsync", "sleep", "join", "wait", "acquire",
                    "acquire_write"}

#: Tree operations that may split a page (directly or transitively) ...
SPLIT_CAPABLE = {"_split_and_insert", "_split_bucket", "_double_directory"}
#: ... and the public mutators, when invoked on a tree-named receiver.
TREE_MUTATORS = {"insert", "delete", "update"}

#: Files that *are* the page-mutation layer.
PAGE_LAYER_FILES = ("storage/page.py", "core/nodeview.py", "core/meta.py")
#: NodeView/MetaView methods that mutate the underlying page bytes.
MUTATOR_METHODS = {
    "init_page", "init_meta", "insert_item", "delete_item", "replace_items",
    "write_backup", "restore_backup", "reclaim_backup", "compact",
    "repair_intra_page", "set_child_at", "set_prev_at", "set_tid_at",
    "set_root",
    "store_freelist", "erase_freelist", "overwrite_region", "set_line",
    "write_header", "copy_page",
}
#: Header properties whose setters mutate page bytes (distinctive names
#: only — generic attrs like ``flags`` would misfire on non-page objects).
VIEW_MUTATING_PROPS = {
    "left_peer", "right_peer", "left_peer_token", "right_peer_token",
    "sync_token", "new_page", "prev_n_keys", "backup_count", "n_keys",
    "height", "lsn",
}
#: Evidence that a path keeps the sync protocol honest about a mutation:
#: explicit dirty-marking, a direct durable write, an allocator that hands
#: back an already-dirty frame, or a declaration that the mutation is
#: volatile-by-design.
DIRTY_EVIDENCE_CALLEES = {
    "mark_dirty", "_dirty", "write_page", "_alloc", "allocate_virtual",
    "note_volatile",
}
#: Incremental decoded-node maintenance: restamps the node to
#: ``buf.version``, so it must follow the dirty-mark that bumps it (R015).
NOTE_CALLEES = {"note_insert", "note_delete", "note_update",
                "note_insert_run", "note_delete_run"}

#: Call targets that produce a derived view sharing the buffer's fact.
VIEW_MAKERS = {"node_of", "NodeView", "MetaView"}
#: Wrappers that bundle a pinned buffer but leave custody with the
#: caller's scope (``PathEntry(page_no, buf, view, bounds)``): the
#: target aliases the buffer's fact instead of the buffer escaping.
PIN_WRAPPERS = {"PathEntry"}

#: Calls that cannot fail, so a statement made only of them has no
#: exception edge: releases (the engine applies them on exception edges
#: too), dirty-marking, and the view constructors.
NO_FAIL_CALLEES = UNPIN_CALLEES | LATCH_RELEASES | VIEW_MAKERS \
    | {"mark_dirty", "_dirty"}

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
BORROW_NAMES: set[str] = set(PIN_RETURNERS) | UNPIN_CALLEES | {
    "mark_dirty", "_dirty", "note_volatile", "pin_count",
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


def _receiver_name(call: ast.Call) -> str:
    """Last dotted segment of the call receiver: ``self.split_lock.acquire``
    -> ``split_lock``; bare names -> ``""``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        dn = dotted_name(func.value)
        if dn is not None:
            return dn.rsplit(".", 1)[-1]
        if isinstance(func.value, ast.Attribute):
            return func.value.attr
    return ""


def is_split_call(call: ast.Call, method: str) -> bool:
    """``self.split_lock.acquire()`` / ``.release()``."""
    return callee_name(call) == method \
        and "split" in _receiver_name(call).lower()


def is_latch_call(call: ast.Call, names: set[str]) -> bool:
    name = callee_name(call)
    if name not in names:
        return False
    if name in ("acquire_read", "acquire_write", "release_all"):
        return True  # the method name alone is distinctive
    return "latch" in _receiver_name(call).lower()


def is_tree_mutation(call: ast.Call) -> bool:
    name = callee_name(call)
    if name in SPLIT_CAPABLE:
        return True
    return name in TREE_MUTATORS \
        and "tree" in _receiver_name(call).lower()


def in_page_layer(ctx: FileContext) -> bool:
    """Whether the file *is* the page-mutation layer, where raw byte
    stores and unmarked mutations are the layer's own business."""
    normalized = ctx.rel_path.replace("\\", "/")
    return any(normalized.endswith(name) for name in PAGE_LAYER_FILES)


def is_data_attr(node: ast.AST) -> bool:
    """``buf.data``: a frame's raw page bytes."""
    return isinstance(node, ast.Attribute) and node.attr == "data"


def is_data_subscript(node: ast.AST) -> bool:
    """``buf.data[i]`` / ``buf.data[a:b]``: a store target in raw page
    bytes (R002 outside the page layer, a mutation for R012)."""
    return isinstance(node, ast.Subscript) and is_data_attr(node.value)


def local_callee(call: ast.Call, local_fns: dict) -> str | None:
    """Name of a same-file function this call may dispatch to: bare
    ``helper()`` or ``self.helper()``."""
    name = callee_name(call)
    if name not in local_fns:
        return None
    func = call.func
    if isinstance(func, ast.Name):
        return name
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in ("self", "cls"):
        return name
    return None


def base_name(expr: ast.AST) -> str | None:
    """Leftmost name of a ``Name`` / ``Attribute`` / ``Subscript``
    chain: ``entry.buffer.data`` -> ``entry``; ``self``/``cls`` -> None
    (attributes of self are not locals the analysis tracks)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name) and expr.id not in ("self", "cls"):
        return expr.id
    return None


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = [a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


# ---------------------------------------------------------------------------
# per-file summaries
# ---------------------------------------------------------------------------

class FileSummaries:
    """Summaries for every function defined in one parsed file."""

    def __init__(self, tree: ast.AST) -> None:
        self.local_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
        self.local_fns = {fn.name: fn for fn in iter_functions(tree)}
        self._calls = {
            name: [n for n in walk_function_scope(fn)
                   if isinstance(n, ast.Call)]
            for name, fn in self.local_fns.items()}
        self._dirties = self._closure(
            lambda c: callee_name(c) in DIRTY_EVIDENCE_CALLEES)
        self._may_block = self._closure(
            lambda c: callee_name(c) in BLOCKING_CALLEES)
        self._may_split = self._closure(is_tree_mutation)
        self._takes_split = self._closure(
            lambda c: is_split_call(c, "acquire"))
        self.unpin_helpers = {
            name for name, fn in self.local_fns.items()
            if self._unpins_param(fn)
        }
        self.borrowers = self._borrow_fixpoint()
        self._pin_shapes = self._returns_pin_fixpoint()

    # -- call-graph closures ----------------------------------------------

    def _closure(self, direct) -> set[str]:
        """The functions that make a call satisfying *direct*, directly
        or through same-file callees."""
        tainted = {name for name, calls in self._calls.items()
                   if any(direct(c) for c in calls)}
        callees = {name: {local_callee(c, self.local_fns) for c in calls}
                   for name, calls in self._calls.items()}
        changed = True
        while changed:
            changed = False
            for name, called in callees.items():
                if name not in tainted and called & tainted:
                    tainted.add(name)
                    changed = True
        return tainted

    def _unpins_param(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        params = _param_names(fn)
        # A param rebound inside the body no longer names the caller's
        # frame by the time it is unpinned (the walk-and-release idiom:
        # pin the next page, rebind, release your own pin), so only
        # never-reassigned params transfer the release to the caller.
        rebound: set[str] = set()
        for node in walk_function_scope(fn):
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
        for call in self._calls[fn.name]:
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
        for node in walk_function_scope(fn):
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
                if cname in BORROW_NAMES:
                    continue
                if local_callee(node, self.local_fns) in borrowers:
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
        for node in walk_function_scope(fn):
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
                if cname in BORROW_NAMES:
                    return False
                args = list(expr.args) + [k.value for k in expr.keywords]
                return any(isinstance(a, ast.Name) and a.id in pinned
                           for a in args)
            return False

        positions: set[int] = set()
        whole = False
        maybe_none = False
        found = False
        for node in walk_function_scope(fn):
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
        return local_callee(call, self.local_fns) in self._dirties

    def may_block(self, call: ast.Call) -> bool:
        return local_callee(call, self.local_fns) in self._may_block

    def may_split(self, call: ast.Call) -> bool:
        return local_callee(call, self.local_fns) in self._may_split

    def takes_split(self, call: ast.Call) -> bool:
        return local_callee(call, self.local_fns) in self._takes_split

    def pin_shape(self, call: ast.Call) -> tuple[tuple[int, ...] | None, bool] | None:
        local = local_callee(call, self.local_fns)
        if local is None:
            return None
        return self._pin_shapes.get(local)


def is_borrowing_call(call: ast.Call, summ: FileSummaries) -> bool:
    """Whether this call leaves its arguments' pin obligations with the
    caller (so the facts do not escape)."""
    name = callee_name(call)
    if name is None:
        return False
    if name in BORROW_NAMES:
        return True
    return local_callee(call, summ.local_fns) in summ.borrowers
