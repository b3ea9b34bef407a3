"""Hot-path layer: search accounting and the leaf finger.

The paper's Table 1 compares insert/lookup cost of the recoverable trees
against a conventional B-tree; this layer removes the avoidable Python
overhead that comparison would otherwise drown in, without weakening any
of the crash-safety machinery.  Two pieces:

* **Decoded nodes** live on the buffer frames themselves
  (:class:`repro.core.nodeview.DecodedNode`, reached through
  ``node_of(buf)``), not here: a node is current while its stamp equals
  ``Buffer.version`` and leaves the pool with its frame, so there is no
  directory to size or invalidate.  This module only keeps the per-tree
  count of how searches were served — ``cache_hits`` (bisect over an
  already decoded key list) against ``cache_misses`` (served from the page
  bytes, or decoded for this search).
* **Leaf finger** (per tree): the last verified leaf, its parent-given
  key bounds, and a structure stamp ``(epoch, splits, repairs)``.  An
  in-bounds operation re-validates the page with the same content test
  the descent's ``_check_child`` applies (magic, level, bounds
  containment, no pending backup, no current-window replacement
  advertisement) and is served without a root descent.  Any structural
  change — split, repair, heal, root move, page reclaim, crash — changes
  the stamp, so the finger falls back to a full (repairing) descent.
  First-use detection is never bypassed: a finger is only ever
  *established* by a descent that ran every Section 3 check in the
  current incarnation, and the stamp pins the tree to exactly that
  verified state.
"""

from __future__ import annotations

from ..obs import get_registry


class FastPath:
    """Per-tree fastpath state: search counters + leaf finger.

    Counters are plain ints (the same lazy-export discipline as the
    buffer pool's pin counters); the registry reads them through func
    counters only at snapshot time.
    """

    __slots__ = ("cache_hits", "cache_misses",
                 "finger_page", "finger_bounds", "finger_stamp",
                 "finger_hits", "finger_misses", "finger_flushes",
                 "batched_amortized")

    def __init__(self, *, kind: str, file_name: str):
        self.cache_hits = 0
        self.cache_misses = 0
        self.finger_page: int | None = None
        self.finger_bounds = None
        self.finger_stamp: tuple[int, int, int] | None = None
        self.finger_hits = 0
        self.finger_misses = 0
        self.finger_flushes = 0
        self.batched_amortized = 0
        reg = get_registry()
        labels = {"kind": kind, "file": file_name}
        reg.func_counter("fastpath.page_cache.hits",
                         lambda: self.cache_hits, **labels)
        reg.func_counter("fastpath.page_cache.misses",
                         lambda: self.cache_misses, **labels)
        reg.func_counter("fastpath.finger.hits",
                         lambda: self.finger_hits, **labels)
        reg.func_counter("fastpath.finger.misses",
                         lambda: self.finger_misses, **labels)
        reg.func_counter("fastpath.finger.flushes",
                         lambda: self.finger_flushes, **labels)
        reg.func_counter("fastpath.batch.amortized",
                         lambda: self.batched_amortized, **labels)

    # -- leaf finger --------------------------------------------------------

    def finger_remember(self, page_no: int, bounds,
                        stamp: tuple[int, int, int]) -> None:
        self.finger_page = page_no
        self.finger_bounds = bounds
        self.finger_stamp = stamp

    def finger_flush(self) -> None:
        """Drop the finger (structure changed or validation failed)."""
        if self.finger_page is not None:
            self.finger_page = None
            self.finger_bounds = None
            self.finger_stamp = None
            self.finger_flushes += 1


__all__ = ["FastPath"]
