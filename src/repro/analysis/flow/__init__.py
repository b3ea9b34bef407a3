"""Path-sensitive dataflow engine for the storage-protocol lint.

The package splits into layers:

* :mod:`.cfg` — per-function control-flow graphs over ``ast``, with
  explicit exception edges, per-continuation ``finally``/``with``
  instances, and a dedicated exceptional exit;
* :mod:`.summaries` — the repo's protocol naming conventions, per-file
  interprocedural summaries (call-graph closures) and the well-known
  cross-file contract table;
* :mod:`.events` — compiles each CFG node into the ordered protocol
  events the lattices care about;
* :mod:`.engine` — the worklist fixpoint over disjunctive path states,
  producing findings with witness traces;
* :mod:`.rules` — rules R006, R007 and R011–R015 as
  :class:`repro.analysis.lint.Rule` subclasses, so pragmas, filtering
  and every output format work unchanged.
"""

from .cfg import CFG, CFGNode, build_cfg
from .engine import Finding, FlowAnalysis
from .rules import (
    FlowRule,
    LatchAcrossBlockingPathRule,
    NoteBeforeDirtyOnPathRule,
    PinBeforeUnlatchRule,
    PinLeakOnPathRule,
    SplitLockOrderRule,
    UseAfterUnpinRule,
    WriteWithoutDirtyOnPathRule,
    analysis_for,
    flow_rules,
)

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "Finding",
    "FlowAnalysis",
    "FlowRule",
    "SplitLockOrderRule",
    "PinBeforeUnlatchRule",
    "PinLeakOnPathRule",
    "WriteWithoutDirtyOnPathRule",
    "UseAfterUnpinRule",
    "LatchAcrossBlockingPathRule",
    "NoteBeforeDirtyOnPathRule",
    "analysis_for",
    "flow_rules",
]
