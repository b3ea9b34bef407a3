"""Buffer pool with pin counts, dirty tracking, and remapping.

The pool mediates every page access.  Three behaviours matter to the
paper's algorithms:

* **Pinning** (Section 3.6): a reader pins a child's buffer before
  releasing the parent's latch, and the allocator refuses to recycle a page
  whose buffer is pinned by anyone else.  Pin counts are therefore exposed
  to the freelist.
* **Dirty tracking**: commit-time sync writes exactly the dirty buffers, in
  OS order, through the simulated disk — the pool never writes dirty pages
  on its own (a strict no-steal discipline, matching POSTGRES' "all pages
  touched by a transaction are written at commit").  The pool keeps the
  set of dirty frames, so a sync costs what it writes, not what is
  resident.
* **Remapping** (Section 3.4, split step 5): a page-reorganization split
  builds the reorganized page ``Pa`` in a buffer with *no* disk address and
  then rebinds that buffer to the split page's slot, so the original page
  on disk is replaced only when the next sync writes it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
from operator import attrgetter
from typing import Iterator

from ..errors import BufferError_
from ..obs import get_registry, get_trace
from .disk import SimulatedDisk

#: Globally monotonic frame-content version source.  Every frame gets a
#: fresh value at construction and on every mutation event
#: (:meth:`BufferPool.mark_dirty`, :meth:`BufferPool.note_volatile`,
#: :meth:`BufferPool.remap`), and a frame that leaves the pool (eviction,
#: :meth:`BufferPool.drop`, crash reopen) can only come back as a *new*
#: ``Buffer`` with a *new* version.  A version therefore names one content
#: generation of one frame, which is all the decoded node hanging off the
#: frame (``Buffer.node``) needs: it is current exactly while its stamp
#: equals ``Buffer.version``, and it leaves the pool with its frame.
_next_version = count(1).__next__

_FRAME_ORDER = attrgetter("order")


class Buffer:
    """One in-memory page frame.

    ``page_no`` is ``None`` for virtual buffers (allocated in memory only,
    not yet bound to a disk slot).  ``version`` identifies the frame's
    current content generation — see :data:`_next_version`.  ``node`` is
    the page's decoded form, owned by whoever reads the page
    (``repro.core.nodeview.node_of`` for index pages); the pool only
    guarantees that it dies with the frame.  ``order`` is the pool's
    stamp of the frame's place in its frame order: of two resident
    frames, the one entered or moved to the end later has the larger.
    """

    __slots__ = ("page_no", "data", "pin_count", "dirty", "version", "node",
                 "order")

    def __init__(self, page_no: int | None, data: bytearray):
        self.page_no = page_no
        self.data = data
        self.pin_count = 0
        self.dirty = False
        self.version = _next_version()
        self.node = None
        self.order = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Buffer page={self.page_no} pins={self.pin_count} "
                f"dirty={self.dirty} v={self.version}>")


class _PoolCounts:
    """A pool's event counts, kept apart from the pool so that exporting
    them to the metrics registry does not export the pool."""

    __slots__ = ("hits", "misses", "evictions", "overflows",
                 "volatile_exempt")

    def __init__(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.overflows = self.volatile_exempt = 0


class BufferPool:
    """Page cache over one :class:`SimulatedDisk`.

    Parameters
    ----------
    disk:
        Backing stable storage.
    capacity:
        Soft limit on cached frames.  Clean, unpinned frames are evicted
        LRU when the limit is exceeded; dirty or pinned frames are never
        evicted (no-steal), so the pool can grow past the limit under
        pressure — ``stats_overflows`` counts how often.
    """

    def __init__(self, disk: SimulatedDisk, capacity: int | None = None):
        self._disk = disk
        self._capacity = capacity
        self._frames: OrderedDict[int, Buffer] = OrderedDict()
        self._next_order = count(1).__next__
        #: the resident frames whose ``dirty`` flag is set: what a sync
        #: reads instead of scanning ``_frames``
        self._dirty_frames: set[Buffer] = set()
        #: pages declared deliberately buffer-only via :meth:`note_volatile`
        self._volatile: set[int] = set()
        # plain ints, not registry Counter objects: ``pin()`` is the single
        # hottest call in the system, and even a bound-method ``inc()`` per
        # pin is measurable.  The registry still sees exact values through
        # lazily-evaluated func counters read only at snapshot time.  They
        # read a holder of their own, not the pool: the registry lives as
        # long as the process, and what it references must not include the
        # frames of every pool a restart ever replaced.
        counts = self._counts = _PoolCounts()
        reg = get_registry()
        reg.func_counter("buffer_pool.hits", lambda: counts.hits,
                         file=disk.name)
        reg.func_counter("buffer_pool.misses", lambda: counts.misses,
                         file=disk.name)
        reg.func_counter("buffer_pool.evictions", lambda: counts.evictions,
                         file=disk.name)
        reg.func_counter("buffer_pool.overflows", lambda: counts.overflows,
                         file=disk.name)
        reg.func_counter("buffer_pool.volatile_exemptions",
                         lambda: counts.volatile_exempt, file=disk.name)

    # -- stats (compatibility views over the plain counters) --------------

    @property
    def stats_hits(self) -> int:
        return self._counts.hits

    @property
    def stats_misses(self) -> int:
        return self._counts.misses

    @property
    def stats_evictions(self) -> int:
        return self._counts.evictions

    @property
    def stats_overflows(self) -> int:
        return self._counts.overflows

    @property
    def stats_volatile_exemptions(self) -> int:
        return self._counts.volatile_exempt

    # -- pinning -------------------------------------------------------------

    def pin(self, page_no: int) -> Buffer:
        """Pin the buffer for *page_no*, faulting it in if needed."""
        buf = self._frames.get(page_no)
        if buf is not None:
            self._counts.hits += 1
            buf.pin_count += 1
            if self._capacity is not None:
                # LRU order only matters when eviction can happen; the
                # default unbounded pool skips the OrderedDict churn
                self._frames.move_to_end(page_no)
                buf.order = self._next_order()
        else:
            self._counts.misses += 1
            data = bytearray(self._disk.read_page(page_no))
            buf = Buffer(page_no, data)
            buf.order = self._next_order()
            self._frames[page_no] = buf
            # pin before evicting so the fresh frame cannot be the victim
            buf.pin_count += 1
            self._maybe_evict()
        return buf

    def unpin(self, buf: Buffer) -> None:
        if buf.pin_count <= 0:
            raise BufferError_(f"unpin of unpinned buffer {buf!r}")
        buf.pin_count -= 1

    def pin_count(self, page_no: int) -> int:
        """Pin count of a cached page (0 if not cached) — used by the
        allocator's is-anyone-using-this check."""
        buf = self._frames.get(page_no)
        return 0 if buf is None else buf.pin_count

    def total_pins(self) -> int:
        """Sum of all pin counts across cached frames.  Operations must
        leave this where they found it (Section 3.6); the runtime sanitizer
        snapshots it around every tree entry point."""
        return sum(buf.pin_count for buf in list(self._frames.values()))

    # -- dirty tracking --------------------------------------------------------

    def mark_dirty(self, buf: Buffer) -> None:
        if buf.pin_count <= 0:
            raise BufferError_("mark_dirty requires a pinned buffer")
        buf.dirty = True
        if buf.page_no is not None:
            self._dirty_frames.add(buf)
        # the frame's content changed (the protocol is mutate-then-dirty),
        # so a node decoded at the old version must stop matching
        buf.version = _next_version()
        # once dirty the frame's whole content reaches the next sync, so
        # any standing volatile declaration is resolved by it
        self._volatile.discard(buf.page_no)

    def note_volatile(self, buf: Buffer) -> None:
        """Declare that *buf* was mutated **deliberately without** marking
        it dirty, so its durable image intentionally diverges until the
        page is dirtied for some other reason.

        The one legitimate user is the shadow split (Section 3.3.2): the
        pre-split page's ``new_page`` advertisement must live in the buffer
        only, because the durable image has to keep the pre-split content
        until the whole split is synced.  The advertisement exists solely
        for in-flight readers that captured the page number before the
        split, so the frame must not be evicted under capacity pressure —
        re-faulting would read the durable image and lose it.  The note
        stands until the frame is dirtied, remapped, dropped, or a sync
        retires it (see :meth:`clear_dirty`); the sanitizing pool
        additionally uses it to exempt the frame from its
        mutated-but-clean check.
        """
        if buf.page_no is not None:
            self._volatile.add(buf.page_no)
            # volatile means "mutated without mark_dirty" — the content
            # still changed, so the frame's node must stop matching
            buf.version = _next_version()

    def is_volatile(self, page_no: int) -> bool:
        """True while a :meth:`note_volatile` declaration stands."""
        return page_no in self._volatile

    def dirty_frame_count(self) -> int:
        """Number of dirty frames, without copying page images.  This is
        the per-file "sync pressure" reading the group-sync scheduler
        polls after every operation, so it must stay allocation-free."""
        return len(self._dirty_frames)

    def dirty_batch(self) -> dict[int, bytes]:
        """Snapshot of every dirty frame, as the batch for a sync, in the
        order the frames stand in the pool (a crash policy indexes into
        the engine's seeded shuffle of it)."""
        return {buf.page_no: bytes(buf.data)
                for buf in sorted(self._dirty_frames, key=_FRAME_ORDER)}

    def clear_dirty(self, page_nos: Iterator[int] | None = None) -> None:
        """Mark frames clean after a successful sync, and retire volatile
        notes whose purpose that sync served."""
        if page_nos is None:
            targets = list(self._dirty_frames)
        else:
            targets = [self._frames[p] for p in page_nos if p in self._frames]
        for buf in targets:
            buf.dirty = False
        self._dirty_frames.difference_update(targets)
        if self._volatile:
            self._retire_volatile()

    def _retire_volatile(self) -> None:
        """End-of-sync resolution of standing volatile declarations.

        A clean, unpinned volatile frame has served its purpose: the sync
        that just completed made the split durable, so descents now route
        around the advertisement and the page is (or is about to be) on
        the freelist.  The frame is dropped so a later re-fault sees the
        authoritative durable image.  A *pinned* volatile frame belongs to
        an operation still in flight (a hybrid split can stall on a sync
        mid-update, Section 3.4 case 1) — its note must keep standing or
        the advertisement would become evictable before the split
        finishes.
        """
        for page_no in list(self._volatile):
            buf = self._frames.get(page_no)
            if buf is None:
                self._volatile.discard(page_no)
            elif buf.pin_count == 0 and not buf.dirty:
                self.drop(page_no)

    # -- virtual buffers and remapping ------------------------------------------

    def allocate_virtual(self, data: bytearray) -> Buffer:
        """A pinned buffer with no disk address (reorg split step 1:
        "Pa is allocated in memory only; it is not backed up on disk")."""
        buf = Buffer(None, data)
        buf.pin_count = 1
        buf.dirty = True
        return buf

    def remap(self, virtual: Buffer, old: Buffer) -> Buffer:
        """Rebind *virtual* to the disk slot of *old* (reorg split step 5).

        The caller must hold the only pin on *old*; its frame is discarded
        (the durable image on disk is untouched until the next sync) and
        *virtual* takes over its page number, keeping its single pin and
        dirty state.
        """
        if virtual.page_no is not None:
            raise BufferError_("remap source must be a virtual buffer")
        if old.page_no is None:
            raise BufferError_("remap target has no disk address")
        if old.pin_count != 1:
            raise BufferError_(
                f"remap target pinned {old.pin_count} times; caller must "
                "hold the only pin"
            )
        page_no = old.page_no
        old.pin_count = 0
        old.page_no = None
        del self._frames[page_no]
        self._dirty_frames.discard(old)
        self._volatile.discard(page_no)
        virtual.page_no = page_no
        # the virtual frame was written while unbound; anything decoded
        # from it before now must stop matching
        virtual.version = _next_version()
        virtual.order = self._next_order()
        self._frames[page_no] = virtual
        self._frames.move_to_end(page_no)
        if virtual.dirty:
            self._dirty_frames.add(virtual)
        return virtual

    # -- cache management ---------------------------------------------------------

    def drop(self, page_no: int) -> None:
        """Remove a (clean, unpinned) frame from the cache, e.g. after its
        page was freed."""
        buf = self._frames.get(page_no)
        if buf is None:
            return
        if buf.pin_count:
            raise BufferError_(f"drop of pinned buffer {buf!r}")
        del self._frames[page_no]
        self._dirty_frames.discard(buf)
        self._volatile.discard(page_no)

    def cached_pages(self) -> list[int]:
        return list(self._frames)

    def _maybe_evict(self) -> None:
        if self._capacity is None or len(self._frames) <= self._capacity:
            return
        for page_no, buf in list(self._frames.items()):
            if len(self._frames) <= self._capacity:
                return
            if buf.pin_count or buf.dirty:
                continue
            if page_no in self._volatile:
                # the frame carries a deliberate buffer-only divergence
                # (shadow split advertisement); evicting it would silently
                # discard the only copy — exempt until a sync retires it
                self._counts.volatile_exempt += 1
                continue
            del self._frames[page_no]
            self._counts.evictions += 1
            get_trace().emit("evict", file=self._disk.name, page=page_no)
        if len(self._frames) > self._capacity:
            self._counts.overflows += 1
