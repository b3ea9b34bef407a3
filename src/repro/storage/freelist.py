"""Index free-space management (paper Section 3.3.3).

During normal operation, pages freed from an index sit on an **in-memory**
freelist; because it is volatile it simply vanishes in a crash and the pages
leak until a garbage-collection pass regenerates the list (POSTGRES already
owes heap relations a garbage collector, so the paper piggybacks on it —
see :func:`repro.core.gc.collect_garbage`).  When the list is empty a new
page is always available by extending the file.

One rule covers every page that reaches the allocator: **its stable image
is all zeros.**

* **Deferred frees.**  Every free waits for the next *completed* sync: a
  freed page may still be the durable source a recovery reads (a shadow
  split's prevPtr target, a previous root) until the sync that makes its
  replacement durable.  :meth:`Freelist.drain_after_sync` then erases each
  deferred page on stable storage and only then lists it.
* **Why zeros.**  The paper refuses to reallocate a page "for the same key
  range", because "there would be no way to tell if the new version of the
  page were lost in a crash".  A page whose old image is gone needs no
  range: a lost new version reads back as zeros, exactly as a lost image of
  a freshly extended page does, and every detector catches that.
* **Pin checks.**  A page whose buffer some process still has pinned is
  neither erased nor handed out (Section 3.6's reader-safety rule); it
  waits for a later drain, or a later allocation.
"""

from __future__ import annotations

from typing import Callable

from ..errors import FreelistError
from ..obs import get_registry


class Freelist:
    """In-memory freelist for one page file.

    Parameters
    ----------
    extend:
        Callback returning a brand-new page number by growing the file.
    pin_count:
        Callback ``page_no -> int`` reporting how many pins the page's
        buffer holds; pinned pages are neither erased nor recycled.
    erase:
        Callback ``page_no -> None`` zeroing the page on stable storage and
        dropping its cached frame; called once per page, by the drain.
    """

    def __init__(self, extend: Callable[[], int],
                 pin_count: Callable[[int], int] | None = None,
                 erase: Callable[[int], None] | None = None):
        self._extend = extend
        self._pin_count = pin_count or (lambda page_no: 0)
        self._erase = erase or (lambda page_no: None)
        self._free: list[int] = []
        self._deferred: list[int] = []
        #: every page on either list, for the double-free check
        self._listed: set[int] = set()
        reg = get_registry()
        self.extended = reg.counter("freelist.extended")
        self.recycled = reg.counter("freelist.recycled")

    # -- allocation ------------------------------------------------------

    def allocate(self) -> int:
        """The most recently erased page no one has pinned, else a new
        page from the end of the file."""
        for i in range(len(self._free) - 1, -1, -1):
            page_no = self._free[i]
            if self._pin_count(page_no) > 0:
                continue
            del self._free[i]
            self._listed.discard(page_no)
            self.recycled.inc()
            return page_no
        self.extended.inc()
        return self._extend()

    # -- freeing ------------------------------------------------------------

    def free(self, page_no: int) -> None:
        """Free a page; it becomes allocatable after the next completed
        sync has erased it."""
        if page_no == 0:
            raise FreelistError("page 0 (control page) cannot be freed")
        if page_no in self._listed:
            raise FreelistError(f"double free of page {page_no}")
        self._listed.add(page_no)
        self._deferred.append(page_no)

    def drain_after_sync(self) -> None:
        """Called by the engine after every completed sync: erase each
        deferred page no one has pinned and list it; a pinned page waits
        for a later drain."""
        waiting = []
        for page_no in self._deferred:
            if self._pin_count(page_no) > 0:
                waiting.append(page_no)
            else:
                self._erase(page_no)
                self._free.append(page_no)
        self._deferred = waiting

    # -- introspection / persistence -------------------------------------------

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, page_no: int) -> bool:
        """Whether *page_no* is free: listed, or awaiting a sync."""
        return page_no in self._listed

    @property
    def pending(self) -> int:
        """Pages awaiting a sync (and an erase)."""
        return len(self._deferred)

    def entries(self) -> list[int]:
        """The allocatable pages, every one erased on stable storage."""
        return list(self._free)

    def load_entries(self, page_nos: list[int]) -> None:
        """Install pages read from a clean-shutdown record (erased before
        they were recorded).  The caller is responsible for erasing the
        durable record *before* any of these pages is reallocated
        (Section 3.3.3)."""
        self._free = list(page_nos)
        self._deferred = []
        self._listed = set(page_nos)
