"""Search accounting for the hot path.

The paper's Table 1 compares insert/lookup cost of the recoverable trees
against a conventional B-tree; the hot path removes the avoidable Python
overhead that comparison would otherwise drown in, without weakening any
of the crash-safety machinery.  It has two halves, and only the counts
live here:

* **Decoded nodes** live on the buffer frames themselves
  (:class:`repro.core.nodeview.DecodedNode`, reached through
  ``node_of(buf)``): a node is current while its stamp equals
  ``Buffer.version`` and leaves the pool with its frame, so there is no
  directory to size or invalidate.  This module keeps the per-tree count
  of how searches were served — ``cache_hits`` (bisect over an already
  decoded key list) against ``cache_misses`` (served from the page
  bytes, or decoded for this search).
* **Leaf runs** (``BLinkTree._insert_run`` / ``_delete_run``): every
  operation reaches its leaf by a descent that runs each Section 3
  check, and a batched write keeps applying sorted keys to that leaf
  while it is provably responsible for them.  ``batched_amortized``
  counts the keys that were served by a predecessor's descent.
"""

from __future__ import annotations

from ..obs import get_registry


class FastPath:
    """Per-tree search counters.

    Plain ints (the same lazy-export discipline as the buffer pool's pin
    counters); the registry reads them through func counters only at
    snapshot time.
    """

    __slots__ = ("cache_hits", "cache_misses", "batched_amortized")

    def __init__(self, *, kind: str, file_name: str):
        self.cache_hits = 0
        self.cache_misses = 0
        self.batched_amortized = 0
        reg = get_registry()
        labels = {"kind": kind, "file": file_name}
        reg.func_counter("fastpath.page_cache.hits",
                         lambda: self.cache_hits, **labels)
        reg.func_counter("fastpath.page_cache.misses",
                         lambda: self.cache_misses, **labels)
        reg.func_counter("fastpath.batch.amortized",
                         lambda: self.batched_amortized, **labels)


__all__ = ["FastPath"]
