"""R010 — buffer-pool content events must invalidate the decoded node.

A frame's decoded node (``Buffer.node``, :class:`repro.core.nodeview.
DecodedNode`) is current exactly while its stamp equals
``Buffer.version``, so every buffer-pool event that changes (or
rebinds) a frame's content must bump ``Buffer.version``.  A pool path
that forgets re-serves stale keys: searches bisect a list that no
longer matches the page bytes — silent wrong results, invisible to
tests that never interleave the exact mutation with a decoded read.
R010 checks each such event's scope in ``storage/buffer_pool.py`` for
version evidence.  (The other half of the contract — ``note_insert`` /
``note_delete`` restamp only after the dirty-mark that bumps the
version — is about order along a path: flow rule R015.  The runtime
sanitizer compares node and bytes on every unpin.)
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


def _assigns_attr(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Attribute) and target.attr == attr
        for target in node.targets)


class StaleCacheInvalidationRule(Rule):
    rule_id = "R010"
    summary = "buffer-pool content event without a version bump"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.rel_path.replace("\\", "/").endswith(
                "storage/buffer_pool.py"):
            return
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
