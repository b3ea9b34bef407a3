"""A paged file: one simulated disk + buffer pool + freelist.

Page 0 of every file is reserved for file metadata (the index meta-data
page of Section 3.3, or heap-relation catalog data) and is never handed out
by the allocator.

File extension writes an explicit zeroed page at the new offset with a
synchronous single-page write.  This mirrors how a UNIX file grows when the
DBMS allocates a page, and it is what makes extension crash-safe: once any
later page can reference the new page number, the file length durably
covers it, so a post-crash reopen (which resumes extension at the durable
file length) can never hand the same page number out twice.  Dangling
references to the never-written page read back as zeroes and are caught by
the inconsistency detectors.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..errors import PageError
from .buffer_pool import Buffer, BufferPool
from .disk import SimulatedDisk
from .freelist import Freelist, KeyRange


class PageFile:
    """One named page file inside a :class:`~repro.storage.engine.StorageEngine`."""

    def __init__(self, name: str, disk: SimulatedDisk,
                 pool_capacity: int | None = None):
        self.name = name
        self.disk = disk
        self.page_size = disk.page_size
        self.pool = BufferPool(disk, capacity=pool_capacity)
        self.freelist = Freelist(self._extend, self._foreign_pins)
        # page 0 is always reserved; a brand-new file starts extension at 1
        self._next_page = max(disk.n_pages, 1)
        self._allocating = 0  # page being handed out; see _foreign_pins

    # -- allocation --------------------------------------------------------

    def allocate(self, key_range: KeyRange | None = None) -> int:
        """Allocate a page number (freelist first, extension as fallback)."""
        return self.freelist.allocate(key_range)

    def free(self, page_no: int, key_range: KeyRange | None = None) -> None:
        self.freelist.free(page_no, key_range)

    def free_after_sync(self, page_no: int,
                        key_range: KeyRange | None = None) -> None:
        self.freelist.free_after_sync(page_no, key_range)

    def _extend(self) -> int:
        page_no = self._next_page
        self._next_page += 1
        # durably reserve the slot (see module docstring)
        self.disk.write_page(page_no, bytes(self.page_size))
        return page_no

    def _foreign_pins(self, page_no: int) -> int:
        """Pins held on *page_no* by anyone at all.  The allocator calls
        this; a recycled page must be completely unreferenced (Section 3.6:
        "the allocator knows not to reallocate pages in buffers with a pin
        count greater than one" — the one being the would-be allocator's
        own pin, which we do not take)."""
        return self.pool.pin_count(page_no)

    # -- page access shortcuts ----------------------------------------------

    def pin(self, page_no: int) -> Buffer:
        if page_no == 0:
            raise PageError(
                "page 0 is the file meta page; use meta accessors"
            )
        return self.pool.pin(page_no)

    def pin_meta(self) -> Buffer:
        """Pin the reserved meta page (page 0)."""
        return self.pool.pin(0)

    def unpin(self, buf: Buffer) -> None:
        self.pool.unpin(buf)

    @contextmanager
    def pinned(self, page_no: int) -> Iterator[Buffer]:
        """Pin *page_no* for the duration of a ``with`` block.

        The context-manager shape makes the unpin structurally impossible
        to forget, which is what lint rule R011 checks for; prefer it for
        straight-line "pin, read/patch, release" code.
        """
        buf = self.pin(page_no)
        try:
            yield buf
        finally:
            self.unpin(buf)

    @contextmanager
    def pinned_meta(self) -> Iterator[Buffer]:
        """Like :meth:`pinned`, for the reserved meta page (page 0)."""
        buf = self.pin_meta()
        try:
            yield buf
        finally:
            self.unpin(buf)

    def mark_dirty(self, buf: Buffer) -> None:
        self.pool.mark_dirty(buf)

    @property
    def n_pages(self) -> int:
        """Pages allocated so far, including in-memory-only extensions."""
        return self._next_page
