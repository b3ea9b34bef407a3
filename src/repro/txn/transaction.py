"""Transactions over the no-WAL storage system.

The commit protocol is the paper's Section 2 in code:

1. "all pages touched by a transaction must be written to stable storage
   before the transaction commits" — :meth:`TransactionManager.commit`
   first runs an engine-wide sync (unordered, crash-interruptible);
2. only then is the transaction's *committed* bit flipped in the
   :class:`~repro.txn.xidlog.XidLog` with one atomic page write — the
   commit point.

A crash anywhere before step 2 leaves the transaction uncommitted; its
tuple versions (and any index keys pointing at them) are invisible after
restart, and no undo is ever needed.
"""

from __future__ import annotations

import struct

from ..errors import TransactionError
from ..obs import get_registry
from ..storage.engine import StorageEngine
from . import xidlog
from .xidlog import XidLog

_XID_FILE = "_pg_log"
_NEXT_XID = struct.Struct("<Q")


class Transaction:
    """Handle for one transaction; hand its ``xid`` to heap operations."""

    def __init__(self, manager: "TransactionManager", xid: int):
        self._manager = manager
        self.xid = xid
        self.state = "active"

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state == "active":
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class TransactionManager:
    """Assigns xids, runs the sync-then-flip commit protocol."""

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        if _XID_FILE in engine.file_names():
            self._file = engine.open_file(_XID_FILE)
        else:
            self._file = engine.create_file(_XID_FILE)
        self.log = XidLog(self._file)
        # the stored value is a persisted *ceiling* (like the maximum sync
        # counter): actual xids never reached it, so restarting there can
        # never reuse a pre-crash xid
        raw = self._file.disk.read_page(0)
        (stored,) = _NEXT_XID.unpack_from(raw, 0)
        self._next_xid = max(stored, 1)
        self._ceiling = 0
        self._ensure_xid_headroom()
        reg = get_registry()
        self._m_commits = reg.counter("txn.commits")
        self._m_aborts = reg.counter("txn.aborts")

    # -- xid assignment ---------------------------------------------------

    def _ensure_xid_headroom(self) -> None:
        if self._next_xid >= self._ceiling:
            self._ceiling = self._next_xid + _XID_BATCH
            data = bytearray(self._file.page_size)
            _NEXT_XID.pack_into(data, 0, self._ceiling)
            self._file.disk.write_page(0, bytes(data))

    def begin(self) -> Transaction:
        xid = self._next_xid
        self._next_xid += 1
        self._ensure_xid_headroom()
        return Transaction(self, xid)

    # -- commit protocol -------------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        """Sync every dirty page, then flip the commit bit (atomic)."""
        if txn.state != "active":
            raise TransactionError(f"commit of {txn.state} transaction")
        self.engine.sync()  # may raise CrashError: txn stays uncommitted
        self.log.set_state(txn.xid, xidlog.COMMITTED)
        txn.state = "committed"
        self._m_commits.inc()

    def abort(self, txn: Transaction) -> None:
        """Record an explicit abort.  Equivalent to doing nothing: an
        absent commit bit already means aborted after a crash."""
        if txn.state != "active":
            raise TransactionError(f"abort of {txn.state} transaction")
        self.log.set_state(txn.xid, xidlog.ABORTED)
        txn.state = "aborted"
        self._m_aborts.inc()

    def is_committed(self, xid: int) -> bool:
        return self.log.is_committed(xid)


_XID_BATCH = 1024
