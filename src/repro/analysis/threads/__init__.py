"""Thread-topology analyzer: whole-package role/lockset lint (R016–R020).

Models a directory of Python files as a thread topology — who spawns
whom, which role runs each method, what blocks, what locks what — and
checks the shard/heal concurrency layer's discipline statically.  See
:mod:`.model` for the fact extraction, :mod:`.roles` for role
inference, :mod:`.engine` for the verdicts and :mod:`.rules` for the
lint-registry integration.
"""

from .engine import ThreadAnalysis, analysis_for
from .model import PackageModel, package_model
from .roles import RoleMap, infer_roles
from .rules import threads_rules

__all__ = [
    "ThreadAnalysis",
    "analysis_for",
    "PackageModel",
    "package_model",
    "RoleMap",
    "infer_roles",
    "threads_rules",
]
