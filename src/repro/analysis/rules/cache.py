"""R010 — frame-content mutations must invalidate the decoded node.

A frame's decoded node (``Buffer.node``, :class:`repro.core.nodeview.
DecodedNode`) is current exactly while its stamp equals
``Buffer.version``: it stays correct only because

* every buffer-pool event that changes (or rebinds) a frame's content
  bumps ``Buffer.version``, and
* incremental maintenance (``note_insert`` / ``note_delete``) runs
  *after* the dirty-marking that bumps the version, so the restamped
  node carries the post-mutation version.

A mutation path that forgets either re-serves stale keys: searches
bisect a list that no longer matches the page bytes — silent wrong
results, invisible to tests that never interleave the exact mutation
with a decoded read.  R010 makes each leg structurally checkable (the
byte-level :class:`NodeView` carries no decoded state, so its mutators
have nothing to drop; the runtime sanitizer compares node and bytes on
every unpin).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..lint import (
    FileContext,
    Rule,
    Violation,
    callee_name,
    iter_functions,
    walk_function_scope,
)

#: Buffer-pool events that change or rebind a frame's content; the scope
#: must show version evidence (a ``.version`` store, a ``_next_version``
#: call, or constructing a fresh ``Buffer``, which self-versions).
VERSION_EVIDENCE_CALLEES = {"_next_version", "Buffer"}

#: Incremental maintenance calls that restamp a decoded node to
#: ``buf.version`` and therefore must follow the version bump.
NOTE_CALLEES = {"note_insert", "note_delete",
                "note_insert_run", "note_delete_run"}

#: Calls that bump the version as a side effect (mutate-then-dirty).
DIRTY_CALLEES = {"mark_dirty", "_dirty"}


def _normalized(ctx: FileContext) -> str:
    return ctx.rel_path.replace("\\", "/")


def _assigns_attr(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Attribute) and target.attr == attr
        for target in node.targets)


class StaleCacheInvalidationRule(Rule):
    rule_id = "R010"
    summary = "frame mutation without decoded-node invalidation"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        path = _normalized(ctx)
        if path.endswith("storage/buffer_pool.py"):
            yield from self._check_buffer_pool(ctx)
        elif "/core/" in path or "/storage/" in path \
                or path.startswith(("core/", "storage/")):
            yield from self._check_note_ordering(ctx)

    # -- buffer-pool content events carry version evidence ----------

    def _check_buffer_pool(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in iter_functions(ctx.tree):
            events: list[tuple[ast.AST, str]] = []
            evidence = False
            for node in walk_function_scope(fn):
                if _assigns_attr(node, "version"):
                    evidence = True
                elif isinstance(node, ast.Call) \
                        and callee_name(node) in VERSION_EVIDENCE_CALLEES:
                    evidence = True
                if _assigns_attr(node, "dirty"):
                    # marking dirty means the content changed (the
                    # protocol is mutate-then-dirty) unless this is the
                    # sync-time clean-down (``= False``)
                    assert isinstance(node, ast.Assign)
                    if isinstance(node.value, ast.Constant) \
                            and node.value.value is True:
                        events.append((node, ".dirty = True"))
                elif _assigns_attr(node, "page_no"):
                    assert isinstance(node, ast.Assign)
                    if not (isinstance(node.value, ast.Constant)
                            and node.value.value is None):
                        events.append((node, ".page_no rebind"))
            if evidence:
                continue
            for node, what in events:
                yield self.violation(
                    ctx, node,
                    f"{what} changes/rebinds frame content but this scope "
                    "shows no version evidence (.version store, "
                    "_next_version(), or Buffer(...)) — a node decoded "
                    "at the old version would keep matching",
                )

    # -- note_* maintenance runs after the version bump -------------

    def _check_note_ordering(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in iter_functions(ctx.tree):
            notes: list[ast.Call] = []
            first_dirty_line: int | None = None
            for node in walk_function_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = callee_name(node)
                if name in NOTE_CALLEES:
                    notes.append(node)
                elif name in DIRTY_CALLEES:
                    line = getattr(node, "lineno", 0)
                    if first_dirty_line is None or line < first_dirty_line:
                        first_dirty_line = line
            for call in notes:
                if first_dirty_line is None:
                    yield self.violation(
                        ctx, call,
                        f"{callee_name(call)}() restamps a decoded node to "
                        "buf.version but this scope never marks the "
                        "buffer dirty — the node keeps the pre-mutation "
                        "version and serves stale keys",
                    )
                elif getattr(call, "lineno", 0) < first_dirty_line:
                    yield self.violation(
                        ctx, call,
                        f"{callee_name(call)}() runs before the scope's "
                        "mark_dirty — the restamped node captures the "
                        "pre-bump version, so the updated list is "
                        "discarded by the next version check",
                    )
