"""The repo-specific lint rules, one module per protocol discipline.

========  ==================================================================
rule      discipline (paper section)
========  ==================================================================
R001      every ``pin()`` is paired with an ``unpin()`` reachable on every
          path — ``try/finally``, the ``pinned()`` context manager, or an
          explicit ownership transfer (3.6)
R002      page bytes are mutated only through the page/NodeView layer, never
          by poking ``buf.data`` directly from tree code
R003      a scope that mutates a buffer must also mark one dirty (or obtain
          the buffer from an allocator that returns it born-dirty) — the
          no-steal sync misses mutated-but-clean frames otherwise
R004      sync-token comparisons go through the SyncState helpers
          (``synced_since_init`` and friends), never raw ``<`` / ``>=`` (3.2)
R005      no bare ``except:`` / ``except Exception`` that swallows
          :mod:`repro.errors` failures without re-raising
R006      the split lock is acquired strictly before the write latch, and
          split-capable work under a write latch without the split lock is
          flagged too (3.6)
R007      the child's buffer is pinned before the parent's latch is
          released on descent paths — the unlatch-then-pin window is where
          the allocator may recycle the child (3.6)
R008      no blocking call (sync, sleep, join, bare acquire, write-latch
          acquisition) while a read latch is held on the descent path (3.6)
R009      every latch / split-lock acquisition has a release reachable on
          every exception edge — ``try/finally``, a re-raising handler, or
          release as the immediately following statement
R010      frame-content mutations invalidate the frame's decoded node:
          buffer-pool content events show a ``Buffer.version`` bump, and
          ``note_insert``/``note_delete`` run after the dirty-marking
          that bumps the version
========  ==================================================================
"""

from __future__ import annotations

from ..lint import Rule
from .pins import UnbalancedPinRule
from .cache import StaleCacheInvalidationRule
from .mutation import DirectDataMutationRule, MissingMarkDirtyRule
from .tokens import RawTokenComparisonRule
from .exceptions import SwallowedErrorRule
from .latches import (
    BlockingUnderReadLatchRule,
    LatchReleaseOnExceptionRule,
    PinBeforeUnlatchRule,
    SplitLockOrderRule,
)

__all__ = [
    "all_rules",
    "UnbalancedPinRule",
    "DirectDataMutationRule",
    "MissingMarkDirtyRule",
    "RawTokenComparisonRule",
    "SwallowedErrorRule",
    "SplitLockOrderRule",
    "PinBeforeUnlatchRule",
    "BlockingUnderReadLatchRule",
    "LatchReleaseOnExceptionRule",
    "StaleCacheInvalidationRule",
]


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in rule-id order."""
    return [
        UnbalancedPinRule(),
        DirectDataMutationRule(),
        MissingMarkDirtyRule(),
        RawTokenComparisonRule(),
        SwallowedErrorRule(),
        SplitLockOrderRule(),
        PinBeforeUnlatchRule(),
        BlockingUnderReadLatchRule(),
        LatchReleaseOnExceptionRule(),
        StaleCacheInvalidationRule(),
    ]
