"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  Crash simulation
uses :class:`CrashError`, which deliberately does *not* derive from
:class:`ReproError`: a simulated crash is not a library bug, and test
harnesses must be able to distinguish the two.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PageError(ReproError):
    """A page-level structural problem (bad magic, bad offsets, overflow)."""


class PageFullError(PageError):
    """An item did not fit on a page.

    Callers that can split (the B-tree insert path) catch this and split the
    page; anyone else sees it as a hard error.
    """


class PageCorruptError(PageError):
    """A page failed structural validation and cannot be repaired in place."""


class BufferError_(ReproError):
    """Buffer-pool misuse: unpinning an unpinned buffer, evicting a pinned
    buffer, remapping to an occupied slot, and similar protocol violations."""


class FreelistError(ReproError):
    """Freelist protocol violation (double free, freeing page 0, ...)."""


class TreeError(ReproError):
    """A B-tree level invariant was violated and could not be repaired."""


class KeyRejectedError(TreeError):
    """A write named a key the index could not apply it to.

    A batched call (``insert_many`` / ``delete_many``) applies every key
    it can and raises once at the end; ``positions`` then lists, in
    ascending order, the indices of the rejected keys in the sequence the
    caller passed.  A single-key call leaves it empty.
    """

    def __init__(self, message: str, positions=()):
        super().__init__(message)
        self.positions = tuple(positions)


class KeyNotFoundError(KeyRejectedError):
    """Raised by delete/update operations when the key is absent."""


class DuplicateKeyError(KeyRejectedError):
    """Raised when inserting a key that is already present.

    The paper assumes no duplicate keys reach the index (POSTGRES rewrites
    duplicates as unique ``<value, object_id>`` composites); this error marks
    a caller that violated that assumption.
    """


class InconsistencyError(TreeError):
    """An index inconsistency was detected but automatic repair is disabled
    or impossible.  Carries the detection report for diagnosis."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class RecoveryError(ReproError):
    """A repair operation could not restore consistency."""


class TransactionError(ReproError):
    """Transaction protocol violation (commit of aborted txn, use after
    close, ...)."""


class WALError(ReproError):
    """Log-layer failure in the WAL comparison substrate."""


class CrashError(Exception):
    """A simulated system crash.

    Raised by :class:`repro.storage.disk.SimulatedDisk` when a crash policy
    fires during ``sync``.  Intentionally not a :class:`ReproError`; it
    models the machine dying, not the library failing.  After it propagates,
    the in-memory state (buffer pool, freelists, sync counter) must be
    discarded and the file reopened from stable storage.
    """

    def __init__(self, message: str = "simulated crash during sync",
                 written=None, dropped=None):
        super().__init__(message)
        #: page ids whose writes reached stable storage before the crash
        self.written = tuple(written or ())
        #: page ids whose writes were lost
        self.dropped = tuple(dropped or ())


class MustSyncError(ReproError):
    """A page-reorganization tree needed a sync before it could proceed and
    no sync hook was configured (paper section 3.4, reclamation case 1)."""
