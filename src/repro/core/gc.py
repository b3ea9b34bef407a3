"""Freelist regeneration — the garbage-collection hook of Section 3.3.3.

"Because the freelist is in volatile storage, it does not survive system
failures and must eventually be regenerated after a failure.  POSTGRES
heap relations require a garbage collector as part of the storage
system's archiving feature; adding index freelist regeneration to its
current archiving tasks does not make garbage collection much more
expensive."

The collector here is that hook: after driving pending repairs and a
sync (so that every reachable page is durable and no shadow/backup copy
is still needed for recovery),
walk the index from its meta page and return every allocated-but-
unreachable page to the freelist.  That reclaims the pages the recovery
algorithms deliberately leak — abandoned split halves, orphaned dual-path
pages, pre-split shadows whose deferred free died with the crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import INVALID_PAGE
from ..storage import is_zeroed, try_read_header
from .btree_base import BLinkTree
from .meta import MetaView
from .nodeview import NodeView


@dataclass
class GCReport:
    """What one collection pass found."""

    reachable: set[int] = field(default_factory=set)
    freed: list[int] = field(default_factory=list)
    already_free: int = 0
    scanned: int = 0

    @property
    def leaked(self) -> int:
        """Pages that had leaked (recovered by this pass)."""
        return len(self.freed)


def collect_garbage(tree: BLinkTree, *, sync_first: bool = True) -> GCReport:
    """Regenerate *tree*'s freelist by reachability walk.

    ``sync_first`` (default) first drives every pending first-use repair
    and then runs an engine sync, which is what makes freeing safe: once
    every lost child is rebuilt and every reachable page is durable, no
    unreachable page can still be a recovery source (prevPtr targets and
    reorg backups are only consulted when a child's image is missing).
    The freed pages are erased and become allocatable after the next
    sync, like every other free.
    """
    if sync_first:
        tree.drive_repairs()
        tree.engine.sync()
    report = GCReport()
    file = tree.file
    reachable = report.reachable
    reachable.add(0)

    mbuf = file.pin_meta()
    try:
        meta = MetaView(mbuf.data, tree.page_size)
        root = meta.root
    finally:
        file.unpin(mbuf)

    stack = [root] if root != INVALID_PAGE else []
    while stack:
        page_no = stack.pop()
        if page_no in reachable or page_no == INVALID_PAGE:
            continue
        reachable.add(page_no)
        buf = file.pin(page_no)
        try:
            if is_zeroed(buf.data) or try_read_header(buf.data) is None:
                continue
            view = NodeView(buf.data, tree.page_size)
            if not view.is_leaf:
                for i in range(view.n_keys):
                    stack.append(view.child_at(i))
        finally:
            file.unpin(buf)

    for page_no in range(1, file.n_pages):
        report.scanned += 1
        if page_no in reachable:
            continue
        if page_no in file.freelist:
            report.already_free += 1
            continue
        file.free(page_no)
        report.freed.append(page_no)
    return report
