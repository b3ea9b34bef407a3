"""The single-statement (pattern) lint rules, one module per discipline.

A pattern rule judges one statement or one scope on its own: a store,
a comparison, a handler, the version evidence of one buffer-pool
method.  Every rule about the *order* of events along a path — pin
before unlatch, split lock before write latch, dirty-mark before a
decoded-node restamp, a release on every exit — is a flow rule
(:mod:`repro.analysis.flow.rules`), and every rule about which thread
touches what is a thread rule (:mod:`repro.analysis.threads.rules`).

========  ==================================================================
rule      discipline (paper section)
========  ==================================================================
R002      page bytes are mutated only through the page/NodeView layer, never
          by poking ``buf.data`` directly from tree code
R004      sync-token comparisons go through the SyncState helpers
          (``synced_since_init`` and friends), never raw ``<`` / ``>=`` (3.2)
R005      no bare ``except:`` / ``except Exception`` that swallows
          :mod:`repro.errors` failures without re-raising
R010      buffer-pool events that change or rebind a frame's content show
          a ``Buffer.version`` bump, so no decoded node outlives its bytes
========  ==================================================================
"""

from __future__ import annotations

from ..lint import Rule
from .cache import StaleCacheInvalidationRule
from .exceptions import SwallowedErrorRule
from .mutation import DirectDataMutationRule
from .tokens import RawTokenComparisonRule

__all__ = [
    "pattern_rules",
    "DirectDataMutationRule",
    "RawTokenComparisonRule",
    "SwallowedErrorRule",
    "StaleCacheInvalidationRule",
]


def pattern_rules() -> list[Rule]:
    """One instance of every pattern rule, in rule-id order."""
    return [
        DirectDataMutationRule(),
        RawTokenComparisonRule(),
        SwallowedErrorRule(),
        StaleCacheInvalidationRule(),
    ]
