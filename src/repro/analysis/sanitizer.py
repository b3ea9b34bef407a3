"""Runtime sanitizer: the protocol invariants, asserted live.

:func:`install` swaps sanitizing subclasses into the storage stack (the
engine's disk and page-file factories, the page file's buffer-pool
factory) and wraps the tree entry points, so the *existing* test suite
doubles as a protocol-conformance suite.  Enable it for a pytest run with
``REPRO_SANITIZE=1`` (see ``tests/conftest.py``) or locally with the
:func:`sanitized` context manager.

Checks (each mapped to the paper section it guards):

* **pins balanced** (3.6) — every ``insert`` / ``delete`` / ``lookup``
  must leave the pool's total pin count exactly where it found it.
* **mutated-but-clean frames** (no-steal sync) — a clean frame's content
  must still match the content it had when it was last faulted in or
  synced; anything else is a lost update the commit-time sync will skip.
  Deliberately volatile mutations (the shadow split's ``new_page``
  advertisement) are declared with ``BufferPool.note_volatile``.
* **premature backup reclaim** (3.4) — reorg backup space may be
  reclaimed only once the split's sync token is durable, i.e. never while
  the page's token still equals the global counter.  Checked both at
  ``reclaim_backup()`` call time and again at the disk, where a durable
  backup may only be overwritten by a backup-free image if the split
  sibling is already durable.
* **unsafe page frees and reuse** (3.3.3) — the live root is never
  freed, and a page reaches the allocator only with an all-zero stable
  image and no frame holding its old bytes (every free is erased by the
  drain after the sync that frees it).
* **stale decoded nodes** (read path) — a frame's decoded node
  (``Buffer.node``) that carries the frame's current ``version`` must
  equal a fresh decode of the bytes.  Checked on every ``unpin``; it
  catches a mutation without ``mark_dirty``, a header setter racing a
  decoded field, and a wrong incremental ``note_insert``/``note_delete``.
"""

from __future__ import annotations

import struct
import sys
import threading
from contextlib import contextmanager
from typing import Iterator
from weakref import WeakSet

from ..constants import INVALID_PAGE, PAGE_CONTROL, PAGE_INTERNAL, PAGE_LEAF
from ..errors import DuplicateKeyError, KeyNotFoundError, ReproError
from ..storage.buffer_pool import Buffer, BufferPool
from ..storage.disk import SimulatedDisk
from ..storage.page import try_read_header, valid_magic
from ..storage.pagefile import PageFile


class SanitizerError(AssertionError):
    """A live protocol-invariant violation.

    Derives from :class:`AssertionError` (not :class:`ReproError`): this is
    a bug in the code under test, not a storage condition callers handle.
    """


#: Engines created while the sanitizer is installed.  The disk-level
#: backup-clear check resolves the owning engine's SyncState by disk
#: membership (several engines — a shard group — may be live at once);
#: the reclaim-time check, which only sees a NodeView, still requires a
#: single live engine to arm.
_ENGINES: WeakSet = WeakSet()

_installed = False
_suspended = 0
_saved: dict[str, object] = {}

# pin-balance bookkeeping: per-thread nesting depth, plus an overlap
# detector — when tree ops from several threads interleave, each sees the
# others' transient pins, so the balance check only runs for solo ops
_tls = threading.local()
_op_lock = threading.Lock()
_active_ops = 0
_overlap_gen = 0


def _checks_active() -> bool:
    return _suspended == 0


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable every sanitizer check (for tests that set up
    deliberately broken states)."""
    global _suspended
    _suspended += 1
    try:
        yield
    finally:
        _suspended -= 1


def _call_site() -> str:
    """``file:line`` of the nearest caller outside the storage plumbing,
    for pin-leak diagnostics."""
    skip = ("sanitizer.py", "buffer_pool.py", "pagefile.py")
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(skip):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


# ---------------------------------------------------------------------------
# sanitizing buffer pool
# ---------------------------------------------------------------------------

class SanitizedBufferPool(BufferPool):
    """BufferPool that diffs clean frames against stable storage.

    A clean frame must match its durable image byte for byte (a deliberate
    write-through keeps the two equal; a mutation without ``mark_dirty``
    does not).  ``dirty_batch`` — the entry point of every sync — verifies
    each clean frame still matches before the batch is built, so a
    mutated-but-clean frame fails the very sync that would have silently
    skipped it.
    """

    def __init__(self, disk: SimulatedDisk, capacity: int | None = None):
        super().__init__(disk, capacity=capacity)
        # volatile-frame bookkeeping lives in the base pool (it drives the
        # eviction exemption there); this class only adds pin-site tracking
        self._pin_sites: dict[int, list[str]] = {}

    def pin(self, page_no: int) -> Buffer:
        buf = super().pin(page_no)
        try:
            self._pin_sites.setdefault(page_no, []).append(_call_site())
        except BaseException:
            super().unpin(buf)
            raise
        return buf

    def unpin(self, buf: Buffer) -> None:
        super().unpin(buf)
        sites = self._pin_sites.get(buf.page_no)
        if sites:
            sites.pop()
        node = buf.node
        # not while an exception unwinds through this unpin: the operation
        # is being abandoned mid-write (a repair that gave up on garbage),
        # and the error in flight is the one to report
        if node is not None and node.version == buf.version \
                and _checks_active() and sys.exc_info()[1] is None:
            problem = node.mismatch()
            if problem is not None:
                raise SanitizerError(
                    f"page {buf.page_no} of {self._disk.name!r} was "
                    f"unpinned with a decoded node that claims the "
                    f"frame's current version but not its bytes "
                    f"({problem}) — a mutation skipped its version bump "
                    f"or a note_* update went wrong")

    def dirty_batch(self) -> dict[int, bytes]:
        if _checks_active():
            self.check_clean_frames()
        return super().dirty_batch()

    def check_clean_frames(self) -> None:
        """Raise if any clean frame's content drifted from its durable
        image — the signature of a mutation without mark_dirty."""
        for page_no, buf in list(self._frames.items()):
            if buf.dirty or page_no is None or page_no in self._volatile:
                continue
            # peek at the backing dict rather than read_page() so the
            # check does not perturb the DiskStats the benches measure
            durable = self._disk._pages.get(page_no)
            if durable is None:
                durable = bytes(self._disk.page_size)
            if bytes(buf.data) != bytes(durable):
                raise SanitizerError(
                    f"page {page_no} of {self._disk.name!r} was mutated but "
                    f"never marked dirty — the sync about to run would skip "
                    f"it and lose the update (R012 at runtime)"
                )

    def remap(self, virtual: Buffer, old: Buffer) -> Buffer:
        buf = super().remap(virtual, old)
        self._pin_sites.pop(buf.page_no, None)
        return buf

    def drop(self, page_no: int) -> None:
        super().drop(page_no)
        self._pin_sites.pop(page_no, None)

    def assert_quiescent(self) -> None:
        """Raise if any frame is still pinned, naming the pin sites."""
        held = {page_no: buf.pin_count
                for page_no, buf in list(self._frames.items())
                if buf.pin_count}
        if held:
            sites = {p: self._pin_sites.get(p, []) for p in held}
            raise SanitizerError(
                f"buffers still pinned at quiescence: {held} "
                f"(pinned from {sites})"
            )


# ---------------------------------------------------------------------------
# sanitizing page file (free-time checks)
# ---------------------------------------------------------------------------

class SanitizedPageFile(PageFile):
    """PageFile that vets every ``free`` and every ``allocate``."""

    def __init__(self, name: str, disk: SimulatedDisk,
                 pool_capacity: int | None = None):
        super().__init__(name, disk, pool_capacity=pool_capacity)
        if not isinstance(self.pool, SanitizedBufferPool):
            self.pool = SanitizedBufferPool(disk, capacity=pool_capacity)

    def free(self, page_no: int) -> None:
        if _checks_active():
            self._check_free(page_no)
        super().free(page_no)

    def allocate(self) -> int:
        page_no = super().allocate()
        if _checks_active():
            self._check_erased(page_no)
        return page_no

    def _check_free(self, page_no: int) -> None:
        # a root transition holds the meta frame pinned and frees the
        # outgoing root before repointing meta — the stale pointer is not
        # evidence of a violation
        if self.pool.pin_count(0) == 0 and page_no == self._cached_root():
            raise SanitizerError(
                f"freeing page {page_no} of {self.name!r}: it is the live "
                f"root"
            )

    def _check_erased(self, page_no: int) -> None:
        """The freelist's one rule: a page reaches the allocator only with
        an all-zero stable image and no frame holding its old bytes, so a
        lost new image reads back as zeros (Section 3.3.3's reuse hazard,
        closed)."""
        # durable_image, not read_page(), so the check does not perturb
        # the DiskStats the benches measure
        durable = self.disk.durable_image(page_no)
        if durable is not None and durable.count(0) != len(durable):
            raise SanitizerError(
                f"page {page_no} of {self.name!r} was handed out with a "
                f"non-zero stable image: a lost new version would read "
                f"back as the old page (Section 3.3.3)"
            )
        buf = self.pool._frames.get(page_no)
        if buf is not None and buf.data.count(0) != len(buf.data):
            # a frame faulted in since the erase holds zeros; one that
            # survived it holds the old image
            raise SanitizerError(
                f"page {page_no} of {self.name!r} was handed out with its "
                f"old frame still cached"
            )

    def _cached_root(self) -> int:
        """The root named by the cached meta frame, or -1 when page 0 is
        not cached or not an index meta page."""
        from ..core.meta import MetaView

        buf = self.pool._frames.get(0)
        if buf is None:
            return -1
        header = try_read_header(buf.data)
        if header is None or header.page_type != PAGE_CONTROL:
            return -1
        try:
            meta = MetaView(buf.data, self.page_size)
            meta.check()
            return meta.root
        except (ReproError, struct.error, ValueError):
            return -1


# ---------------------------------------------------------------------------
# sanitizing disk (durable backup-clear ordering)
# ---------------------------------------------------------------------------

class SanitizedDisk(SimulatedDisk):
    """SimulatedDisk that vets backup-clearing writes.

    A durable page image holding reorg backup keys is the only recovery
    source for its split; overwriting it with a backup-free image is legal
    only if the split's other half is already durable (the sync token
    advanced past the split).  Restores (the new image holds the full
    pre-split key set again) are exempt.
    """

    def _write(self, page_no: int, data: bytes | bytearray) -> None:
        if _checks_active():
            old = self._pages.get(page_no)
            if old is not None:
                self._check_backup_clear(page_no, old, data)
        super()._write(page_no, data)

    def _check_backup_clear(self, page_no: int, old: bytes,
                            new: bytes | bytearray) -> None:
        old_header = try_read_header(old)
        if old_header is None or old_header.prev_n_keys == 0 \
                or old_header.page_type not in (PAGE_LEAF, PAGE_INTERNAL):
            return
        new_header = try_read_header(new)
        if new_header is None or new_header.prev_n_keys != 0:
            return  # backup kept (or page recycled to a non-node image)
        if new_header.n_keys >= old_header.prev_n_keys:
            return  # restore: the page holds the full pre-split set again
        sibling = old_header.new_page
        if sibling == INVALID_PAGE:
            return
        state = _state_for_disk(self)
        if state is None or state.predates_last_crash(old_header.sync_token):
            # a backup stamped before the last crash is resolved by the
            # first-use repair, which may rewrite the page any way it
            # likes — only current-incarnation backups obey the ordering
            return
        sibling_image = self._pages.get(sibling)
        if sibling_image is None or not valid_magic(sibling_image):
            raise SanitizerError(
                f"write of page {page_no} to {self.name!r} clears a durable "
                f"reorg backup while split sibling {sibling} is not durable "
                f"— backup space reclaimed before its sync token was "
                f"durable (Section 3.4)"
            )


# ---------------------------------------------------------------------------
# wrappers installed onto existing classes
# ---------------------------------------------------------------------------

def _single_live_state():
    live = [e for e in _ENGINES if not e.dead]
    if len(live) == 1:
        return live[0].sync_state
    return None


def _state_for_disk(disk):
    """The SyncState owning *disk* — resolved by disk membership, so the
    backup-clear ordering check stays armed when several engines are live
    at once (a shard group is exactly that).  Falls back to the
    single-live-engine rule when no live owner holds this disk."""
    for engine in _ENGINES:
        if engine.dead:
            continue
        disks = getattr(engine, "_disks", None)
        if disks is not None and any(d is disk for d in disks.values()):
            return engine.sync_state
    return _single_live_state()


def _checked_reclaim_backup(view) -> None:
    if _checks_active() and view.prev_n_keys:
        state = _single_live_state()
        if state is not None and state.is_current(view.sync_token):
            raise SanitizerError(
                f"reclaim_backup on a page whose sync token "
                f"({view.sync_token}) still equals the global counter — "
                f"the split was never synced, so the backup keys are the "
                f"only durable copy (Section 3.4)"
            )
    _saved["NodeView.reclaim_backup"](view)


def _balanced(method):
    """Wrap a tree entry point with a pin-balance snapshot check."""

    def wrapper(self, *args, **kwargs):
        global _active_ops, _overlap_gen
        depth = getattr(_tls, "depth", 0)
        outermost = depth == 0 and _checks_active()
        alone = True
        if outermost:
            with _op_lock:
                _active_ops += 1
                if _active_ops > 1:
                    _overlap_gen += 1
                    alone = False
                my_gen = _overlap_gen
        before = self.file.pool.total_pins() if outermost else 0
        _tls.depth = depth + 1
        try:
            return method(self, *args, **kwargs)
        finally:
            _tls.depth = depth
            solo = False
            after = before
            if outermost:
                with _op_lock:
                    solo = (alone and _active_ops == 1
                            and _overlap_gen == my_gen)
                    if solo:
                        # sample under the lock: a new op cannot enter
                        # (and pin) until we release it
                        after = self.file.pool.total_pins()
                    _active_ops -= 1
            exc = sys.exc_info()[1]
            benign = exc is None or isinstance(
                exc, (KeyNotFoundError, DuplicateKeyError))
            if outermost and solo and benign and _checks_active() \
                    and not getattr(self.engine, "dead", False):
                if after != before:
                    pool = self.file.pool
                    sites = getattr(pool, "_pin_sites", {})
                    held = {p: s for p, s in sites.items() if s}
                    raise SanitizerError(
                        f"{method.__name__} left the pool pin count at "
                        f"{after}, expected {before} — a pin leaked "
                        f"(Section 3.6); outstanding pin sites: {held}"
                    )

    # preserve the generator-ness check some callers might do via name
    wrapper.__name__ = method.__name__
    wrapper.__doc__ = method.__doc__
    return wrapper


def install() -> None:
    """Swap the sanitizing classes into the storage stack (idempotent)."""
    global _installed
    if _installed:
        return
    from ..storage import engine as engine_mod
    from ..storage import pagefile as pagefile_mod
    from ..core.btree_base import BLinkTree
    from ..core.nodeview import NodeView

    _saved["engine.SimulatedDisk"] = engine_mod.SimulatedDisk
    engine_mod.SimulatedDisk = SanitizedDisk
    _saved["engine.PageFile"] = engine_mod.PageFile
    engine_mod.PageFile = SanitizedPageFile
    _saved["pagefile.BufferPool"] = pagefile_mod.BufferPool
    pagefile_mod.BufferPool = SanitizedBufferPool

    orig_init = engine_mod.StorageEngine.__init__
    _saved["StorageEngine.__init__"] = orig_init

    def tracking_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        _ENGINES.add(self)

    engine_mod.StorageEngine.__init__ = tracking_init

    _saved["NodeView.reclaim_backup"] = NodeView.reclaim_backup
    NodeView.reclaim_backup = _checked_reclaim_backup

    for name in ("insert", "delete", "lookup"):
        original = getattr(BLinkTree, name)
        _saved[f"BLinkTree.{name}"] = original
        setattr(BLinkTree, name, _balanced(original))

    _installed = True


def uninstall() -> None:
    """Restore every patched attribute (idempotent)."""
    global _installed
    if not _installed:
        return
    from ..storage import engine as engine_mod
    from ..storage import pagefile as pagefile_mod
    from ..core.btree_base import BLinkTree
    from ..core.nodeview import NodeView

    engine_mod.SimulatedDisk = _saved.pop("engine.SimulatedDisk")
    engine_mod.PageFile = _saved.pop("engine.PageFile")
    pagefile_mod.BufferPool = _saved.pop("pagefile.BufferPool")
    engine_mod.StorageEngine.__init__ = _saved.pop("StorageEngine.__init__")
    NodeView.reclaim_backup = _saved.pop("NodeView.reclaim_backup")
    for name in ("insert", "delete", "lookup"):
        setattr(BLinkTree, name, _saved.pop(f"BLinkTree.{name}"))
    _installed = False


@contextmanager
def sanitized() -> Iterator[None]:
    """``with sanitized():`` — install for the duration of a block.

    Nesting-safe: if the sanitizer was already installed (e.g. by the
    ``REPRO_SANITIZE=1`` test fixture), leaving the block keeps it so.
    """
    was_installed = _installed
    install()
    try:
        yield
    finally:
        if not was_installed:
            uninstall()
