"""R016–R020 — the thread-topology rules.

All five rules share one :class:`~.engine.ThreadAnalysis` per package
and lint run, so running the full thread catalogue over a directory
costs one model build and one analysis pass.  Each rule filters the package-wide findings down to the
file under lint and attaches the witness path — spawn/API entry, call
chain, conflicting sites — to the emitted Violation.

========  ==================================================================
rule      discipline
========  ==================================================================
R016      a shared mutable attribute is accessed from ≥ 2 thread roles
          with no lock common to every access
R017      a blocking call (queue get, join, future result, event/
          condition wait, sleep, simulated I/O) runs while holding a
          lock, directly or through package-local calls
R018      a thread or future is created but never joined/consumed on
          any path — errors vanish and shutdown can strand it
R019      non-atomic check-then-act: a branch tests a shared attribute
          and its body writes it with no common lock
R020      ``Condition.wait`` outside a ``while`` predicate loop
========  ==================================================================
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from ..lint import FileContext, Rule, Violation
from .engine import analysis_for

__all__ = [
    "ThreadRule",
    "InconsistentLocksetRule",
    "BlockingUnderLockRule",
    "UnjoinedThreadRule",
    "CheckThenActRule",
    "ConditionWaitLoopRule",
    "threads_rules",
]


class ThreadRule(Rule):
    """Base for the thread rules: filter the package analysis findings
    by rule id and by the file under lint."""

    rule_id: ClassVar[str] = "R000"
    summary: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        here = ctx.path.resolve()
        for finding in analysis_for(ctx).findings:
            if finding.rule_id != self.rule_id or finding.path != here:
                continue
            yield Violation(
                rule_id=self.rule_id,
                path=ctx.rel_path,
                line=finding.line,
                col=finding.col + 1,
                message=finding.message,
                witness=finding.witness,
            )


class InconsistentLocksetRule(ThreadRule):
    rule_id = "R016"
    summary = "shared attribute accessed from ≥2 thread roles with " \
              "inconsistent locksets"


class BlockingUnderLockRule(ThreadRule):
    rule_id = "R017"
    summary = "blocking call (get/join/result/wait/simulated I/O) " \
              "while holding a lock"


class UnjoinedThreadRule(ThreadRule):
    rule_id = "R018"
    summary = "thread/future created but never joined or consumed"


class CheckThenActRule(ThreadRule):
    rule_id = "R019"
    summary = "non-atomic check-then-act on a shared dict/list/attribute"


class ConditionWaitLoopRule(ThreadRule):
    rule_id = "R020"
    summary = "Condition.wait outside a while predicate loop"


def threads_rules() -> list[Rule]:
    """One instance of every thread rule, in rule-id order."""
    return [
        InconsistentLocksetRule(),
        BlockingUnderLockRule(),
        UnjoinedThreadRule(),
        CheckThenActRule(),
        ConditionWaitLoopRule(),
    ]
