"""R006, R007, R011–R015 — the path-sensitive flow rules.

Every rule about the *order* of protocol events along a path lives
here.  All of them share one :class:`~.engine.FlowAnalysis` pass per
file (cached on the :class:`~...lint.FileContext`), so running the
whole flow catalogue costs one fixpoint, not seven.  Each rule filters
the shared findings by rule id and attaches the witness path — the
concrete file:line chain of protocol events and branch decisions along
which the violation happens — to the emitted :class:`~...lint.Violation`.

========  ==================================================================
rule      discipline (paper section)
========  ==================================================================
R006      the split lock is acquired strictly before the write latch, never
          while one is held, and split-capable work (directly or through a
          same-file helper) under a write latch without the split lock is
          flagged too, so *deleting* the acquisition is caught (3.6)
R007      the child's buffer is pinned before the parent's latch is
          released on descent paths — the unlatch-then-pin window is where
          the allocator may recycle the child; reported at the release (3.6)
R011      a pinned frame leaks on *some* exit path — normal or
          exceptional — even when other paths release it (3.6); a pin
          is accounted for by an unpin on every path, or by transferring
          it (returned, yielded, stored, handed to a call that keeps it)
R012      a page mutation reaches a normal exit with no dirty evidence
          on *that path* (``mark_dirty``, a born-dirty ``_alloc``,
          ``note_volatile``) — the no-steal sync loses that update
R013      a frame or NodeView is used after its pin was released on the
          current path — the pool may already have evicted the page
R014      a latch is held across a blocking call on some path, a latch
          is acquired under a read latch (readers never couple), or a
          latch is still held when a path — normal or exceptional —
          leaves the function (3.6)
R015      a ``note_*`` restamp (``note_insert`` / ``note_delete`` /
          ``note_update`` and the run forms) runs on a path that has not
          yet marked the buffer dirty, in ``core/`` and ``storage/``:
          the restamped decoded node captures the stale version
========  ==================================================================
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from ..lint import FileContext, Rule, Violation
from .engine import FlowAnalysis
from .summaries import in_page_layer

__all__ = [
    "FlowRule",
    "SplitLockOrderRule",
    "PinBeforeUnlatchRule",
    "PinLeakOnPathRule",
    "WriteWithoutDirtyOnPathRule",
    "UseAfterUnpinRule",
    "LatchAcrossBlockingPathRule",
    "NoteBeforeDirtyOnPathRule",
    "flow_rules",
]

_CACHE_ATTR = "_flow_analysis_cache"

#: Packages whose code owns decoded nodes; R015 is checked there only,
#: so unit tests that drive ``note_*`` by hand stay unflagged.
NOTE_PACKAGES = ("core/", "storage/")


def _in_note_scope(ctx: FileContext) -> bool:
    path = ctx.rel_path.replace("\\", "/")
    return any(f"/{pkg}" in path or path.startswith(pkg)
               for pkg in NOTE_PACKAGES)


def analysis_for(ctx: FileContext) -> FlowAnalysis:
    """The file's shared flow analysis; computed once, reused by every
    flow rule (and by anything else that wants the findings)."""
    cached = getattr(ctx, _CACHE_ATTR, None)
    if cached is None:
        cached = FlowAnalysis(ctx.tree, in_page_layer=in_page_layer(ctx),
                              checks_notes=_in_note_scope(ctx))
        setattr(ctx, _CACHE_ATTR, cached)
    return cached


class FlowRule(Rule):
    """Base for the flow rules: filter the shared findings by id."""

    rule_id: ClassVar[str] = "R000"
    summary: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for finding in analysis_for(ctx).findings:
            if finding.rule_id != self.rule_id:
                continue
            yield Violation(
                rule_id=self.rule_id,
                path=ctx.rel_path,
                line=finding.line,
                col=finding.col + 1,
                message=finding.message,
                witness=finding.witness,
            )


class SplitLockOrderRule(FlowRule):
    rule_id = "R006"
    summary = "split lock must be acquired before (never under) a write latch"


class PinBeforeUnlatchRule(FlowRule):
    rule_id = "R007"
    summary = "child pin must precede the parent unlatch on descent paths"


class PinLeakOnPathRule(FlowRule):
    rule_id = "R011"
    summary = "pin leaks on some exit path (normal or exceptional)"


class WriteWithoutDirtyOnPathRule(FlowRule):
    rule_id = "R012"
    summary = "mutation reaches an exit path with no dirty-mark on it"


class UseAfterUnpinRule(FlowRule):
    rule_id = "R013"
    summary = "frame/NodeView used after its pin was released"


class LatchAcrossBlockingPathRule(FlowRule):
    rule_id = "R014"
    summary = "latch held across a blocking call or acquire, or leaked " \
              "on some path"


class NoteBeforeDirtyOnPathRule(FlowRule):
    rule_id = "R015"
    summary = "cache note runs before the path's dirty-mark"


def flow_rules() -> list[Rule]:
    """One instance of every flow rule, in rule-id order."""
    return [
        SplitLockOrderRule(),
        PinBeforeUnlatchRule(),
        PinLeakOnPathRule(),
        WriteWithoutDirtyOnPathRule(),
        UseAfterUnpinRule(),
        LatchAcrossBlockingPathRule(),
        NoteBeforeDirtyOnPathRule(),
    ]
