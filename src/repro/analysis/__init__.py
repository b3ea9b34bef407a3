"""Crash-safety conformance tooling for the storage protocol.

The paper's recovery guarantee (Sullivan & Olson, ICDE 1992) rests on a
small set of coding disciplines rather than on a redo log:

* every pinned buffer is unpinned before the operation returns (3.6);
* every mutated buffer is marked dirty so the commit-time sync writes it
  (the no-steal rule — a mutated-but-clean buffer is a lost update);
* reorg backup space is reclaimed only after the split's sync token is
  durable (3.4);
* sync-token comparisons go through the :class:`~repro.storage.sync.SyncState`
  helpers so incarnation arithmetic stays in one place (3.2);
* protocol errors derived from :mod:`repro.errors` are never swallowed by
  blanket ``except`` clauses.

This package enforces those disciplines twice over:

* :mod:`repro.analysis.lint` — an AST-based static checker with one
  catalogue of repo-specific rules: single-statement pattern rules
  (:mod:`repro.analysis.rules`), path-sensitive flow rules
  (:mod:`repro.analysis.flow`) and thread-topology rules
  (:mod:`repro.analysis.threads`), run as ``python -m repro.tools.lint
  src/``.
* :mod:`repro.analysis.sanitizer` — runtime wrappers around the buffer
  pool, page file, disk, and tree entry points that assert the same
  invariants live while the ordinary test suite runs
  (``REPRO_SANITIZE=1 pytest``).
"""

from .lint import (  # noqa: F401
    FileContext,
    LintReport,
    Rule,
    Violation,
    lint_paths,
)
from .sanitizer import (  # noqa: F401
    SanitizedBufferPool,
    SanitizedDisk,
    SanitizedPageFile,
    SanitizerError,
    install,
    sanitized,
    uninstall,
)

__all__ = [
    "FileContext",
    "LintReport",
    "Rule",
    "Violation",
    "lint_paths",
    "SanitizedBufferPool",
    "SanitizedDisk",
    "SanitizedPageFile",
    "SanitizerError",
    "install",
    "sanitized",
    "uninstall",
]
