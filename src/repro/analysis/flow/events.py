"""Protocol events — the abstraction the flow engine runs on.

Each CFG node is compiled into an ordered list of *events*: the things a
statement does that the typestate lattices care about (pin, unpin, mark
dirty, mutate a page, acquire/release a latch, block, note a cache
update, bind/alias/escape a variable).  Everything else a statement does
is invisible to the analysis.

The extraction keys on the repo's naming conventions and the per-file
interprocedural summaries, both in :mod:`.summaries` — the latter for
helpers like ``_read_meta`` that return pinned buffers or ``_wait``
that blocks transitively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..lint import callee_name
from .cfg import CFGNode
from .summaries import (
    BLOCKING_CALLEES,
    DIRTY_EVIDENCE_CALLEES,
    LATCH_ACQUIRES,
    LATCH_RELEASES,
    MUTATOR_METHODS,
    NOTE_CALLEES,
    PIN_RETURNERS,
    PIN_WRAPPERS,
    UNPIN_CALLEES,
    VIEW_MAKERS,
    VIEW_MUTATING_PROPS,
    FileSummaries,
    base_name,
    is_borrowing_call,
    is_data_subscript,
    is_latch_call,
    is_split_call,
    is_tree_mutation,
)

__all__ = ["Event", "node_events", "branch_shape"]


@dataclass(frozen=True)
class Event:
    """One protocol-relevant action.  ``op`` selects which of the other
    fields matter (a closed union kept flat so states stay hashable):

    ========== ==========================================================
    op          meaning / payload
    ========== ==========================================================
    use         ``vars`` are read (R013 checks them against unpin state)
    pin         ``var`` binds a pinned frame (or is empty: a pin whose
                value the analysis does not track); ``derived`` share its
                fact; ``maybe_none`` for nullable helpers; ``scoped`` for
                with-bound pins released at the with-exit
    unpin       ``vars``'s facts are released
    dirty       dirty evidence on this path (R012 / R015)
    mutate      a page mutation obligation (R012); ``note``=description
    cachenote   ``note_insert``/``note_delete`` (R015); ``note``=name
    latch-acq   ``family`` in read / write / split
    latch-rel   ``family``; ``rel_all`` for release_all
    block       a call that may block the thread (R014); ``note``=name
    split       a call that may split or take the split lock (R006)
    escape      ``vars`` leave this frame's custody (ownership transfer)
    alias       ``var`` becomes another name for ``src``'s fact
    rebind      ``vars`` are bound to something untracked (kills facts
                bindings and boolean-flag knowledge for those names)
    flag        ``var``'s truth is ``value``: it is assigned a boolean or
                non-negative int literal, or a counter is counted up
    ========== ==========================================================
    """

    op: str
    line: int
    col: int = 0
    var: str = ""
    src: str = ""
    vars: tuple[str, ...] = ()
    derived: tuple[str, ...] = ()
    note: str = ""
    family: str = ""
    value: bool = False
    maybe_none: bool = False
    scoped: bool = False
    rel_all: bool = False


def _arg_bases(call: ast.Call) -> tuple[str, ...]:
    names = []
    work = list(call.args) + [k.value for k in call.keywords]
    while work:
        arg = work.pop(0)
        # a container literal hands over everything inside it:
        # ``path.append((page_no, buf, node, slot))`` escapes ``buf``
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
            work.extend(arg.elts)
            continue
        if isinstance(arg, ast.Starred):
            work.append(arg.value)
            continue
        name = base_name(arg)
        if name is not None:
            names.append(name)
    return tuple(dict.fromkeys(names))


def _walk_expr(node: ast.AST):
    """ast.walk, but opaque at nested function/class scopes."""
    stack = [node]
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(sub))


def _loaded_names(node: ast.AST, *, skip: set[str] | None = None) -> tuple[str, ...]:
    names = []
    for sub in _walk_expr(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                and sub.id not in ("self", "cls") \
                and (skip is None or sub.id not in skip):
            names.append(sub.id)
    return tuple(dict.fromkeys(names))


def _calls_in(node: ast.AST) -> list[ast.Call]:
    calls = [sub for sub in _walk_expr(node) if isinstance(sub, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _contains_yield(node: ast.AST) -> bool:
    return any(isinstance(sub, (ast.Yield, ast.YieldFrom))
               for sub in _walk_expr(node))


# ---------------------------------------------------------------------------
# call classification
# ---------------------------------------------------------------------------

def _call_events(call: ast.Call, summ: FileSummaries) -> list[Event]:
    """Events for one call, *excluding* pin-binding (that needs the
    assignment context and is handled in :func:`_assign_events`)."""
    line, col = call.lineno, call.col_offset
    name = callee_name(call)
    out: list[Event] = []
    if name is None:
        bases = _arg_bases(call)
        if bases:
            out.append(Event("escape", line, col, vars=bases,
                             note="passed to a dynamic call"))
        return out
    if is_split_call(call, "acquire"):
        return [Event("latch-acq", line, col, family="split")]
    if is_split_call(call, "release"):
        return [Event("latch-rel", line, col, family="split")]
    if is_latch_call(call, LATCH_ACQUIRES):
        family = "read" if name == "acquire_read" else "write"
        return [Event("latch-acq", line, col, family=family)]
    if is_latch_call(call, LATCH_RELEASES):
        return [Event("latch-rel", line, col, family="latch",
                      rel_all=(name == "release_all"))]
    if name in UNPIN_CALLEES or name in summ.unpin_helpers:
        return [Event("unpin", line, col, vars=_arg_bases(call))]
    if name in NOTE_CALLEES:
        return [Event("cachenote", line, col, note=name)]
    if name in DIRTY_EVIDENCE_CALLEES:
        return [Event("dirty", line, col, note=f"{name}()")]
    if name in MUTATOR_METHODS:
        out.append(Event("mutate", line, col, note=f"{name}()"))
    if is_tree_mutation(call) or summ.may_split(call):
        out.append(Event("split", line, col, note=f"{name}() may split"))
    elif summ.takes_split(call):
        out.append(Event("split", line, col,
                         note=f"{name}() acquires the split lock"))
    if _pin_shape(call, summ) is not None:
        out.append(Event("pin", line, col))
    if name in BLOCKING_CALLEES or summ.may_block(call):
        out.append(Event("block", line, col, note=name))
    if summ.dirties(call):
        out.append(Event("dirty", line, col, note=f"{name}()"))
    if not is_borrowing_call(call, summ):
        bases = _arg_bases(call)
        if bases:
            out.append(Event("escape", line, col, vars=bases,
                             note=f"passed to {name}()"))
    return out


def _pin_shape(call: ast.Call,
               summ: FileSummaries) -> tuple[tuple[int, ...] | None, bool] | None:
    """If *call* returns a pinned buffer: (pin positions or None for the
    whole value, maybe_none).  Positions index a tuple-shaped return."""
    name = callee_name(call)
    if name is None:
        return None
    known = PIN_RETURNERS.get(name)
    if known is not None:
        return known
    local = summ.pin_shape(call)
    return local


# ---------------------------------------------------------------------------
# statement lowering
# ---------------------------------------------------------------------------

def _assign_events(stmt: ast.Assign, summ: FileSummaries) -> list[Event]:
    line, col = stmt.lineno, stmt.col_offset
    value = stmt.value
    target = stmt.targets[0]
    out: list[Event] = []
    target_names = {sub.id for t in stmt.targets for sub in _walk_expr(t)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Store)}
    out.append(Event("use", line, col,
                     vars=_loaded_names(value, skip=target_names)))

    # -- pin-returning RHS --------------------------------------------------
    if isinstance(value, ast.Call):
        shape = _pin_shape(value, summ)
        if shape is not None:
            positions, maybe_none = shape
            out.extend(ev for c in _calls_in(value) if c is not value
                       for ev in _call_events(c, summ))
            if callee_name(value) in DIRTY_EVIDENCE_CALLEES:
                # _alloc / allocate_virtual hand frames back born-dirty
                out.append(Event("dirty", line, col,
                                 note=f"{callee_name(value)}()"))
            # a pinned value bound to something untracked escapes
            var, derived = _pin_targets(target, positions)
            out.append(Event("pin", line, col, var=var or "",
                             derived=derived, maybe_none=maybe_none))
            return out

    # -- derived views and pin wrappers (alias, not escape) ----------------
    if isinstance(target, ast.Name) and isinstance(value, ast.Call):
        name = callee_name(value)
        bases = _arg_bases(value)
        if name in (VIEW_MAKERS | PIN_WRAPPERS) and bases:
            out.extend(ev for c in _calls_in(value) if c is not value
                       for ev in _call_events(c, summ))
            # the engine aliases to whichever listed name holds a fact
            out.append(Event("alias", line, col, var=target.id,
                             src="|".join(bases)))
            return out

    # -- everything the RHS calls ------------------------------------------
    for call in _calls_in(value):
        out.extend(_call_events(call, summ))

    # -- plain binds / aliases / flags -------------------------------------
    if isinstance(target, ast.Name):
        if isinstance(value, ast.Name) and value.id not in ("self", "cls"):
            out.append(Event("alias", line, col, var=target.id,
                             src=value.id))
            return out
        if _counter_literal(value):
            out.append(Event("flag", line, col, var=target.id,
                             value=bool(value.value)))
            return out
        out.append(Event("rebind", line, col, vars=(target.id,)))
        return out
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
            and len(target.elts) == len(value.elts):
        for t, v in zip(target.elts, value.elts):
            if isinstance(t, ast.Name):
                if isinstance(v, ast.Name) and v.id not in ("self", "cls"):
                    out.append(Event("alias", line, col, var=t.id,
                                     src=v.id))
                else:
                    out.append(Event("rebind", line, col, vars=(t.id,)))
        return out
    if isinstance(target, ast.Tuple):
        names = tuple(t.id for t in target.elts if isinstance(t, ast.Name))
        if names:
            out.append(Event("rebind", line, col, vars=names))
        return out

    # -- stores into attributes / containers -------------------------------
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        if is_data_subscript(target):
            out.append(Event("mutate", line, col, note="raw .data store"))
        elif isinstance(target, ast.Attribute) \
                and target.attr in VIEW_MUTATING_PROPS \
                and not (isinstance(target.value, ast.Name)
                         and target.value.id == "self"):
            out.append(Event("mutate", line, col,
                             note=f".{target.attr} store"))
        escaping = _loaded_names(value)
        if escaping:
            out.append(Event("escape", line, col, vars=escaping,
                             note="stored beyond this frame"))
    return out


def _counter_literal(value: ast.expr) -> bool:
    """A boolean or non-negative int literal: the values whose truth a
    ``flag`` records, so ``if owned:`` and ``if hops:`` guards refine
    alike."""
    return isinstance(value, ast.Constant) \
        and isinstance(value.value, int) and value.value >= 0


def _pin_targets(target: ast.expr,
                 positions: tuple[int, ...] | None
                 ) -> tuple[str | None, tuple[str, ...]]:
    """Map a pin-returning call's tuple shape onto the assignment
    target: the bound buffer name plus the derived names (views) that
    share its fact."""
    if isinstance(target, ast.Name):
        return target.id, ()
    if isinstance(target, ast.Tuple):
        names = [t.id if isinstance(t, ast.Name) else None
                 for t in target.elts]
        if positions is None:
            positions = (0,)
        pin_idx = positions[0] if positions else 0
        if pin_idx < len(names) and names[pin_idx] is not None:
            var = names[pin_idx]
            # only trailing elements are views over the buffer; leading
            # ones (e.g. _alloc's page_no) are plain values
            derived = tuple(n for i, n in enumerate(names)
                            if n is not None and i > pin_idx)
            assert var is not None
            return var, derived
    return None, ()


def _stmt_events(stmt: ast.stmt, summ: FileSummaries) -> list[Event]:
    line, col = stmt.lineno, stmt.col_offset
    if isinstance(stmt, ast.Assign):
        events = _assign_events(stmt, summ)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        events = [Event("use", line, col, vars=_loaded_names(stmt))]
        events += [ev for c in _calls_in(stmt)
                   for ev in _call_events(c, summ)]
        target = stmt.target
        if isinstance(target, ast.Name) and isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.op, ast.Add) \
                and _counter_literal(stmt.value) and stmt.value.value:
            # a counter counted up is truthy from then on
            events.append(Event("flag", line, col, var=target.id,
                                value=True))
        elif isinstance(target, ast.Name):
            events.append(Event("rebind", line, col, vars=(target.id,)))
        elif is_data_subscript(target):
            events.append(Event("mutate", line, col,
                                note="raw .data store"))
    elif isinstance(stmt, ast.Return):
        events = [Event("use", line, col,
                        vars=_loaded_names(stmt.value)
                        if stmt.value else ())]
        events += [ev for c in _calls_in(stmt.value)
                   for ev in _call_events(c, summ)] if stmt.value else []
        if stmt.value is not None:
            escaping = _loaded_names(stmt.value)
            if escaping:
                events.append(Event("escape", line, col, vars=escaping,
                                    note="returned to the caller"))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef, ast.Import, ast.ImportFrom,
                           ast.Global, ast.Nonlocal, ast.Pass)):
        events = []
    elif isinstance(stmt, ast.Delete):
        names = tuple(t.id for t in stmt.targets
                      if isinstance(t, ast.Name))
        events = [Event("rebind", line, col, vars=names)] if names else []
    else:
        # Expr, Assert, Raise, and anything else: uses + call effects
        events = [Event("use", line, col, vars=_loaded_names(stmt))]
        events += [ev for c in _calls_in(stmt)
                   for ev in _call_events(c, summ)]
    if _contains_yield(stmt):
        # values leaving through yield escape this frame's custody
        escaping = tuple(n for sub in _walk_expr(stmt)
                         if isinstance(sub, (ast.Yield, ast.YieldFrom))
                         and sub.value is not None
                         for n in _loaded_names(sub.value))
        if escaping:
            events.append(Event("escape", line, col, vars=escaping,
                                note="yielded to the caller"))
    return events


# ---------------------------------------------------------------------------
# with statements
# ---------------------------------------------------------------------------

#: Context managers that pin: ``with file.pinned(no) as buf:``.
SCOPED_PIN_CALLEES = {"pinned", "pinned_meta"}


def _with_enter_events(stmt: ast.With | ast.AsyncWith,
                       summ: FileSummaries) -> list[Event]:
    line, col = stmt.lineno, stmt.col_offset
    events: list[Event] = [Event("use", line, col,
                                 vars=_loaded_names_items(stmt))]
    for item in stmt.items:
        ctx_expr = item.context_expr
        var = item.optional_vars.id \
            if isinstance(item.optional_vars, ast.Name) else None
        if isinstance(ctx_expr, ast.Call) \
                and callee_name(ctx_expr) in SCOPED_PIN_CALLEES:
            events.append(Event("pin", line, col, var=var or "",
                                scoped=True))
            continue
        if _with_latch_family(ctx_expr) is not None:
            events.append(Event("latch-acq", line, col,
                                family=_with_latch_family(ctx_expr) or ""))
            continue
        for call in _calls_in(ctx_expr):
            events.extend(_call_events(call, summ))
        if var is not None:
            events.append(Event("rebind", line, col, vars=(var,)))
    return events


def _with_exit_events(stmt: ast.With | ast.AsyncWith, line: int) -> list[Event]:
    events: list[Event] = []
    for item in stmt.items:
        ctx_expr = item.context_expr
        var = item.optional_vars.id \
            if isinstance(item.optional_vars, ast.Name) else None
        if isinstance(ctx_expr, ast.Call) \
                and callee_name(ctx_expr) in SCOPED_PIN_CALLEES \
                and var is not None:
            events.append(Event("unpin", line, vars=(var,)))
        elif _with_latch_family(ctx_expr) is not None:
            events.append(Event("latch-rel", line,
                                family=_with_latch_family(ctx_expr) or ""))
    return events


def _with_latch_family(ctx_expr: ast.expr) -> str | None:
    """``with self.split_lock:`` — the lock object itself as manager."""
    name = None
    if isinstance(ctx_expr, ast.Attribute):
        name = ctx_expr.attr
    elif isinstance(ctx_expr, ast.Name):
        name = ctx_expr.id
    if name is None:
        return None
    if "split" in name.lower():
        return "split"
    if "latch" in name.lower():
        return "latch"
    return None


def _loaded_names_items(stmt: ast.With | ast.AsyncWith) -> tuple[str, ...]:
    names: list[str] = []
    for item in stmt.items:
        names.extend(_loaded_names(item.context_expr))
    return tuple(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# the per-node entry point
# ---------------------------------------------------------------------------

def node_events(node: CFGNode, summ: FileSummaries) -> list[Event]:
    if node.kind == "stmt" and node.ast_node is not None:
        assert isinstance(node.ast_node, ast.stmt)
        return _stmt_events(node.ast_node, summ)
    if node.kind in ("branch", "loop") and node.test is not None:
        events = [Event("use", node.line, vars=_loaded_names(node.test))]
        events += [ev for c in _calls_in(node.test)
                   for ev in _call_events(c, summ)]
        if node.kind == "loop" and isinstance(node.ast_node,
                                              (ast.For, ast.AsyncFor)):
            names = tuple(sub.id
                          for sub in _walk_expr(node.ast_node.target)
                          if isinstance(sub, ast.Name))
            if names:
                events.append(Event("rebind", node.line, vars=names))
        return events
    if node.kind == "with-enter" and node.with_stmt is not None:
        return _with_enter_events(node.with_stmt, summ)
    if node.kind == "with-exit" and node.with_stmt is not None:
        return _with_exit_events(node.with_stmt, node.line)
    if node.kind == "except" and isinstance(node.ast_node,
                                            ast.ExceptHandler):
        if node.ast_node.name:
            return [Event("rebind", node.line, vars=(node.ast_node.name,))]
    return []


def branch_shape(test: ast.expr) -> tuple[str, str, bool] | None:
    """Recognise the refinable branch tests: returns
    ``(kind, var, inverted)`` with kind ``truth`` (``if flag:`` /
    ``if not flag:``) or ``isnone`` (``if x is None:`` /
    ``if x is not None:``)."""
    inverted = False
    while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inverted = not inverted
        test = test.operand
    if isinstance(test, ast.Name) and test.id not in ("self", "cls"):
        return ("truth", test.id, inverted)
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None \
            and isinstance(test.left, ast.Name):
        if isinstance(test.ops[0], ast.Is):
            return ("isnone", test.left.id, inverted)
        if isinstance(test.ops[0], ast.IsNot):
            return ("isnone", test.left.id, not inverted)
    return None
