"""A shadow-recoverable extendible hash index.

The paper (Section 1): "Although we have implemented them only for
B-link-trees, the same techniques can be used for R-trees, extensible
hash indices [Fagin et al.], and other B-tree variants."  This module
makes that claim concrete for extendible hashing.

Structure (Fagin et al. 1979):

* a **directory** of ``2^global_depth`` bucket pointers, indexed by the
  top ``global_depth`` bits of the key hash;
* **buckets** holding ``<key, TID>`` items; each bucket has a
  ``local_depth`` ≤ global depth, and every directory slot whose top
  ``local_depth`` bits match the bucket's **prefix** points at it;
* a full bucket splits into two buckets of depth+1; if its depth equalled
  the global depth, the directory doubles first.

The shadow-paging transfer is direct:

* directory entries are ``<bucketPtr, prevPtr>`` pairs — the exact
  analogue of the B-tree's internal triples (the slot index plays the
  key's role);
* a bucket split never touches the old bucket: two fresh pages take its
  items, the directory slots are repointed, and the old bucket becomes
  the ``prev`` for both (freed after the next sync) or is recycled
  immediately if it was never durable — split steps (2)/(3) verbatim;
* detection on first use: a bucket must carry its own (prefix,
  local_depth) stamp consistent with the slot it was reached through;
  a zeroed or mismatched bucket is rebuilt by re-hashing the prev
  bucket's items — "the recovery operation is nearly the same as the
  normal split operation";
* directory doubling is itself shadowed through the meta page: the new
  directory pages are fresh allocations and the meta holds
  current+previous directory roots, like the B-tree's root pointer.

Buckets reuse the B-tree page format (:class:`~repro.core.nodeview.NodeView`
leaf layout); ``level`` stores the local depth and ``lsn`` the bucket's
hash prefix.
"""

from __future__ import annotations

import struct
import zlib
from time import perf_counter

from ..constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF
from ..obs import get_registry
from ..errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    RecoveryError,
    TreeError,
)
from ..storage import valid_magic
from ..storage.engine import StorageEngine
from ..core import items as I
from ..core.concurrency import schedule_point
from ..core.detect import Action, DetectionReport, Kind, RepairLog
from ..core.keys import CODECS, TID, KeyCodec
from ..core.meta import MetaView
from ..core.nodeview import NodeView

#: fixed-size directory entry: bucket page, previous bucket page
_DIR_ENTRY = struct.Struct("<II")
DIR_ENTRY_SIZE = _DIR_ENTRY.size

#: hash width used for prefixes (top bits index the directory)
HASH_BITS = 32


def hash_key(key: bytes) -> int:
    """Stable 32-bit key hash (crc32 is deterministic across runs)."""
    return zlib.crc32(key) & 0xFFFFFFFF


class ExtendibleHashIndex:
    """Shadow-recoverable extendible hash index over one page file."""

    KIND = "xhash"

    def __init__(self, engine: StorageEngine, file, codec: KeyCodec):
        self.engine = engine
        self.file = file
        self.codec = codec
        self.page_size = file.page_size
        self.repair_log = RepairLog()
        self.repair_log.bind_owner(kind=self.KIND, file_name=file.name,
                                   token_source=self._token)
        reg = get_registry()
        self._m_bucket_splits = reg.counter("tree.splits", kind=self.KIND)
        self._m_dir_doublings = reg.counter("hash.directory_doublings",
                                            kind=self.KIND)
        self._entries_per_page = (self.page_size - 64) // DIR_ENTRY_SIZE

    @property
    def stats_bucket_splits(self) -> int:
        return self._m_bucket_splits.value

    @property
    def stats_directory_doublings(self) -> int:
        return self._m_dir_doublings.value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, engine: StorageEngine, name: str,
               codec: str | KeyCodec = "uint32") -> "ExtendibleHashIndex":
        codec_obj = CODECS[codec] if isinstance(codec, str) else codec
        file = engine.create_file(name)
        index = cls(engine, file, codec_obj)
        # depth-0 start: one directory page with one slot, one empty bucket
        bucket = index._new_bucket(depth=0, prefix=0)
        dir_page = index._new_directory_page([(bucket, 0)])
        mbuf = file.pin_meta()
        try:
            meta = MetaView(mbuf.data, index.page_size)
            meta.init_meta("none", codec_obj.name)
            meta.set_root(dir_page, 0, index._token())
            meta.height = 0  # reused as the global depth
            file.mark_dirty(mbuf)
            file.disk.write_page(0, bytes(mbuf.data))
        finally:
            file.unpin(mbuf)
        # the durability test "page token == global counter ⇒ never
        # synced" is only sound if every page initialized with the current
        # token forces the counter to advance at the next sync; flag the
        # create-time pages like a split would
        engine.sync_state.note_split()
        return index

    @classmethod
    def open(cls, engine: StorageEngine, name: str) -> "ExtendibleHashIndex":
        file = engine.open_file(name)
        mbuf = file.pin_meta()
        try:
            meta = MetaView(mbuf.data, file.page_size)
            meta.check()
            codec_obj = CODECS[meta.codec_name]
        finally:
            file.unpin(mbuf)
        return cls(engine, file, codec_obj)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _token(self) -> int:
        return self.engine.sync_state.token()

    @property
    def global_depth(self) -> int:
        mbuf = self.file.pin_meta()
        try:
            return MetaView(mbuf.data, self.page_size).height
        finally:
            self.file.unpin(mbuf)

    def _meta_state(self) -> tuple[int, int, int]:
        """(directory root page, previous directory root, global depth)."""
        mbuf = self.file.pin_meta()
        try:
            meta = MetaView(mbuf.data, self.page_size)
            return meta.root, meta.prev_root, meta.height
        finally:
            self.file.unpin(mbuf)

    @staticmethod
    def _prefix_range(prefix: int, depth: int):
        """The hash-value span a bucket covers, as a freelist key range.

        The Section 3.3.3 rule transfers directly: a freed bucket must not
        be reallocated for an overlapping hash-prefix region, or a lost
        new image would read back as a plausible stale bucket."""
        lo = (prefix << (HASH_BITS - depth)) if depth else 0
        hi = ((prefix + 1) << (HASH_BITS - depth)) if depth else (1 << HASH_BITS)
        lo_bytes = lo.to_bytes(4, "big")
        hi_bytes = None if hi >= (1 << HASH_BITS) else hi.to_bytes(4, "big")
        return (lo_bytes, hi_bytes)

    def _new_bucket(self, *, depth: int, prefix: int) -> int:
        page_no = self.file.allocate(self._prefix_range(prefix, depth))
        buf = self.file.pin(page_no)
        try:
            view = NodeView(buf.data, self.page_size)
            view.init_page(PAGE_LEAF, level=depth,
                           sync_token=self._token())
            view.lsn = prefix
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)
        return page_no

    # ------------------------------------------------------------------
    # directory pages
    #
    # The directory is a flat array of <bucket, prev> entries spread over
    # a chain of PAGE_INTERNAL pages linked by right_peer; entry count per
    # page is fixed, the chain head is the meta root.  ``level`` on each
    # directory page stores the global depth it was built for, so a stale
    # (pre-doubling) directory page is detectable.
    # ------------------------------------------------------------------

    def _new_directory_page(self, entries: list[tuple[int, int]],
                            *, depth: int = 0,
                            next_page: int = INVALID_PAGE) -> int:
        page_no = self.file.allocate()
        buf = self.file.pin(page_no)
        try:
            view = NodeView(buf.data, self.page_size)
            view.init_page(PAGE_INTERNAL, level=depth,
                           sync_token=self._token())
            view.right_peer = next_page
            view.n_keys = len(entries)
            for i, (bucket, prev) in enumerate(entries):
                view.set_dense_entry(i, DIR_ENTRY_SIZE,
                                     _DIR_ENTRY.pack(bucket, prev))
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)
        return page_no

    def _dir_locate(self, slot: int) -> tuple[int, int]:
        """(directory page number, index within it) for a directory slot,
        walking the page chain from the meta root."""
        root, prev_root, depth = self._meta_state()
        if not getattr(self, "_dir_checked", False):
            self._verify_directory(root, prev_root, depth)
            self._dir_checked = True
        page_no = root
        index = slot
        while index >= self._entries_per_page:
            buf = self.file.pin(page_no)
            try:
                nxt = NodeView(buf.data, self.page_size).right_peer
            finally:
                self.file.unpin(buf)
            if nxt == INVALID_PAGE:
                raise TreeError(f"directory chain too short for slot {slot}")
            page_no = nxt
            index -= self._entries_per_page
        return page_no, index

    def _verify_directory(self, root: int, prev_root: int,
                          depth: int) -> None:
        """Detect a directory chain lost in a crash (the analogue of the
        B-tree's lost root) and rebuild it by re-executing the doubling
        from the previous chain."""
        needed = max(1, -(-(1 << depth) // self._entries_per_page))
        page_no = root
        chain = []
        ok = True
        while page_no != INVALID_PAGE and len(chain) < needed:
            chain.append(page_no)
            buf = self.file.pin(page_no)
            try:
                view = NodeView(buf.data, self.page_size)
                if (not valid_magic(buf.data)
                        or view.page_type != PAGE_INTERNAL
                        or view.level != depth):
                    ok = False
                    break
                page_no = view.right_peer
            finally:
                self.file.unpin(buf)
        if ok and len(chain) >= needed:
            return
        started = perf_counter()
        if prev_root == INVALID_PAGE:
            # only the create-time directory has no previous chain; if it
            # is lost, no sync ever committed — every key was uncommitted
            if depth != 0:
                raise RecoveryError(
                    "directory lost with no previous chain")
            bucket = self._new_bucket(depth=0, prefix=0)
            buf = self.file.pin(root)
            try:
                view = NodeView(buf.data, self.page_size)
                view.init_page(PAGE_INTERNAL, level=0,
                               sync_token=self._token())
                view.n_keys = 1
                view.set_dense_entry(0, DIR_ENTRY_SIZE,
                                     _DIR_ENTRY.pack(bucket, 0))
                self.file.mark_dirty(buf)
            finally:
                self.file.unpin(buf)
            self.engine.sync_state.note_split()
            self.repair_log.add(DetectionReport(
                Kind.LOST_ROOT, root, Action.VERIFIED_ONLY,
                detail="rebuilt empty depth-0 directory"),
                duration=perf_counter() - started)
            return
        # read the previous chain (depth-1) and re-execute the doubling
        # into the slots of the lost chain
        entries: list[tuple[int, int]] = []
        page_no = prev_root
        while page_no != INVALID_PAGE:
            buf = self.file.pin(page_no)
            try:
                view = NodeView(buf.data, self.page_size)
                if not valid_magic(buf.data):
                    raise RecoveryError(
                        f"previous directory page {page_no} unreadable")
                for i in range(view.n_keys):
                    entries.append(_DIR_ENTRY.unpack_from(
                        buf.data, 64 + i * DIR_ENTRY_SIZE))
                page_no = view.right_peer
            finally:
                self.file.unpin(buf)
        # the previous chain may be several doublings old (step-3 prev
        # reuse): double until it covers the current depth
        doubled = list(entries)
        while len(doubled) < (1 << depth):
            doubled = [entry for entry in doubled for _ in range(2)]
        if len(doubled) != (1 << depth):
            raise RecoveryError(
                f"previous directory has {len(entries)} entries; cannot "
                f"cover depth {depth}")
        chunks = [doubled[i:i + self._entries_per_page]
                  for i in range(0, len(doubled), self._entries_per_page)]
        # rebuild in place: the meta root's slot is reused (the meta page
        # already points there), surviving chain slots are reused, and
        # fresh pages cover any shortfall
        existing = []
        page_no = root
        while page_no != INVALID_PAGE and len(existing) < len(chunks):
            existing.append(page_no)
            buf = self.file.pin(page_no)
            try:
                view = NodeView(buf.data, self.page_size)
                page_no = (view.right_peer if valid_magic(buf.data)
                           else INVALID_PAGE)
            finally:
                self.file.unpin(buf)
        targets = [existing[idx] if idx < len(existing)
                   else self.file.allocate()
                   for idx in range(len(chunks))]
        token = self._token()
        for idx, chunk in enumerate(chunks):
            nxt = targets[idx + 1] if idx + 1 < len(targets) \
                else INVALID_PAGE
            buf = self.file.pin(targets[idx])
            try:
                view = NodeView(buf.data, self.page_size)
                view.init_page(PAGE_INTERNAL, level=depth,
                               sync_token=token)
                view.right_peer = nxt
                view.n_keys = len(chunk)
                for i, (bucket, prev) in enumerate(chunk):
                    view.set_dense_entry(i, DIR_ENTRY_SIZE,
                                         _DIR_ENTRY.pack(bucket, prev))
                self.file.mark_dirty(buf)
            finally:
                self.file.unpin(buf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            Kind.LOST_ROOT, root, Action.COPIED_PREV_ROOT,
            detail=f"directory rebuilt from chain {prev_root}"),
            duration=perf_counter() - started)

    def _dir_read(self, slot: int) -> tuple[int, int]:
        page_no, index = self._dir_locate(slot)
        buf = self.file.pin(page_no)
        try:
            return _DIR_ENTRY.unpack_from(buf.data,
                                          64 + index * DIR_ENTRY_SIZE)
        finally:
            self.file.unpin(buf)

    def _dir_write(self, slot: int, bucket: int, prev: int) -> None:
        page_no, index = self._dir_locate(slot)
        buf = self.file.pin(page_no)
        try:
            view = NodeView(buf.data, self.page_size)
            view.set_dense_entry(index, DIR_ENTRY_SIZE,
                                 _DIR_ENTRY.pack(bucket, prev))
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)

    # ------------------------------------------------------------------
    # lookup / insert / delete
    # ------------------------------------------------------------------

    def _slot_for(self, hashed: int, depth: int) -> int:
        if depth == 0:
            return 0
        return hashed >> (HASH_BITS - depth)

    def _bucket_for(self, key: bytes) -> tuple[int, int, NodeView, object]:
        """Resolve key -> (slot, bucket page, pinned view, buffer),
        verifying and repairing the slot->bucket link on the way."""
        hashed = hash_key(key)
        depth = self.global_depth
        slot = self._slot_for(hashed, depth)
        bucket, prev = self._dir_read(slot)
        buf = self.file.pin(bucket)
        try:
            schedule_point("pin_child", page=bucket)
            view = NodeView(buf.data, self.page_size)
            if not self._bucket_consistent(buf, view, hashed):
                self._repair_bucket(slot, bucket, buf, view, prev)
        except BaseException:
            self.file.unpin(buf)
            raise
        return slot, bucket, view, buf

    def _bucket_consistent(self, buf, view: NodeView, hashed: int) -> bool:
        if not valid_magic(buf.data):
            return False
        if view.page_type != PAGE_LEAF:
            return False
        local = view.level
        if local > HASH_BITS:
            return False
        # the bucket's stamped prefix must match the hash's top bits
        if local and (hashed >> (HASH_BITS - local)) != view.lsn:
            return False
        return True

    def _repair_bucket(self, slot: int, bucket: int, buf, view: NodeView,
                       prev: int) -> None:
        """Re-execute the interrupted bucket split: rebuild the bucket
        from the previous bucket's items that hash into this slot."""
        hashed_prefix = None
        depth = self.global_depth
        kind = Kind.ZEROED_CHILD if not valid_magic(buf.data) \
            else Kind.RANGE_MISMATCH
        if prev == INVALID_PAGE:
            # no shadow recorded: the bucket never held committed keys
            view.init_page(PAGE_LEAF, level=depth,
                           sync_token=self._token())
            view.lsn = slot
            self.file.mark_dirty(buf)
            self.repair_log.add(DetectionReport(
                kind, bucket, Action.VERIFIED_ONLY,
                detail="rebuilt empty (no prev bucket)"))
            return
        pbuf = self.file.pin(prev)
        try:
            pview = NodeView(pbuf.data, self.page_size)
            if not valid_magic(pbuf.data):
                raise RecoveryError(
                    f"bucket {bucket}: prev bucket {prev} unreadable")
            # the repaired bucket serves directory slot `slot` at the
            # current global depth: new local depth = prev depth + 1
            new_depth = min(pview.level + 1, depth)
            prefix = slot >> (depth - new_depth) if depth else 0
            blobs = []
            for i in range(pview.n_keys):
                key = pview.key_at(i)
                if self._slot_for(hash_key(key), new_depth) == prefix:
                    blobs.append(pview.item_bytes_at(i))
            view.init_page(PAGE_LEAF, level=new_depth,
                           sync_token=self._token())
            view.lsn = prefix
            view.replace_items(sorted(blobs, key=lambda b: I.item_key(b, 0)))
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(pbuf)
        self.engine.sync_state.note_split()
        self.repair_log.add(DetectionReport(
            kind, bucket, Action.REBUILT_FROM_PREV,
            detail=f"prev={prev} slot={slot}"))

    def lookup(self, value) -> TID | None:
        key = self.codec.encode(value)
        _slot, _bucket, view, buf = self._bucket_for(key)
        try:
            index, found = view.search(key)
            return view.tid_at(index) if found else None
        finally:
            self.file.unpin(buf)

    def __contains__(self, value) -> bool:
        return self.lookup(value) is not None

    def insert(self, value, tid: TID | tuple[int, int]) -> None:
        if not isinstance(tid, TID):
            tid = TID(*tid)
        key = self.codec.encode(value)
        while True:
            slot, bucket, view, buf = self._bucket_for(key)
            try:
                index, found = view.search(key)
                if found:
                    raise DuplicateKeyError(f"key {value!r} already present")
                item = I.pack_leaf_item(key, tid)
                if view.can_fit(len(item)):
                    view.insert_item(index, item)
                    self.file.mark_dirty(buf)
                    return
                self._split_bucket(slot, bucket, view)
            finally:
                self.file.unpin(buf)

    def delete(self, value) -> None:
        key = self.codec.encode(value)
        _slot, _bucket, view, buf = self._bucket_for(key)
        try:
            index, found = view.search(key)
            if not found:
                raise KeyNotFoundError(f"key {value!r} not in index")
            view.delete_item(index)
            self.file.mark_dirty(buf)
        finally:
            self.file.unpin(buf)

    def items(self) -> list[tuple[object, TID]]:
        """Every (value, tid) pair; hash order is meaningless, so sorted
        by decoded value for convenience."""
        out = []
        seen = set()
        depth = self.global_depth
        for slot in range(1 << depth):
            bucket, _prev = self._dir_read(slot)
            if bucket in seen:
                continue
            seen.add(bucket)
            buf = self.file.pin(bucket)
            try:
                view = NodeView(buf.data, self.page_size)
                if not valid_magic(buf.data):
                    continue
                for i in range(view.n_keys):
                    out.append((self.codec.decode(view.key_at(i)),
                                view.tid_at(i)))
            finally:
                self.file.unpin(buf)
        return sorted(out, key=lambda pair: pair[0])

    def __len__(self) -> int:
        return len(self.items())

    # ------------------------------------------------------------------
    # splits (the shadow transfer)
    # ------------------------------------------------------------------

    def _split_bucket(self, slot: int, bucket: int, view: NodeView) -> None:
        depth = self.global_depth
        local = view.level
        if local >= depth:
            self._double_directory()
            depth += 1
            slot = slot * 2  # the low twin of the widened slot range
        new_depth = local + 1
        old_prefix = view.lsn
        p_durable = self.engine.sync_state.synced_since_init(
            view.sync_token)

        # two fresh buckets take the items — the old bucket is untouched
        b0 = self._new_bucket(depth=new_depth, prefix=old_prefix << 1)
        b1 = self._new_bucket(depth=new_depth, prefix=(old_prefix << 1) | 1)
        halves: dict[int, list[bytes]] = {0: [], 1: []}
        for i in range(view.n_keys):
            key = view.key_at(i)
            bit = (hash_key(key) >> (HASH_BITS - new_depth)) & 1
            halves[bit].append(view.item_bytes_at(i))
        for page_no, blobs in ((b0, halves[0]), (b1, halves[1])):
            nbuf = self.file.pin(page_no)
            try:
                NodeView(nbuf.data, self.page_size).replace_items(blobs)
                self.file.mark_dirty(nbuf)
            finally:
                self.file.unpin(nbuf)

        # repoint every directory slot that referenced the old bucket;
        # split steps (2)/(3): prev = the old bucket if durable, else the
        # slot's existing prev
        span = 1 << (depth - new_depth)
        base0 = (old_prefix << 1) * span
        base1 = ((old_prefix << 1) | 1) * span
        for base, target in ((base0, b0), (base1, b1)):
            for s in range(base, base + span):
                _old_bucket, old_prev = self._dir_read(s)
                prev = bucket if p_durable else old_prev
                self._dir_write(s, target, prev)
        old_range = self._prefix_range(old_prefix, local)
        if p_durable:
            self.file.free_after_sync(bucket, old_range)
        else:
            self.file.free(bucket, old_range)
        self._m_bucket_splits.inc()
        self.engine.sync_state.note_split()

    def _double_directory(self) -> None:
        """Double the directory shadow-style: build fresh directory pages
        with every entry duplicated, then swing the meta pointer (its own
        current/previous pair, like the B-tree root)."""
        root, _prev_root, depth = self._meta_state()
        new_depth = depth + 1
        entries: list[tuple[int, int]] = []
        for slot in range(1 << depth):
            bucket, prev = self._dir_read(slot)
            entries.append((bucket, prev))
            entries.append((bucket, prev))
        # build the new chain back-to-front
        next_page = INVALID_PAGE
        chunks = [entries[i:i + self._entries_per_page]
                  for i in range(0, len(entries), self._entries_per_page)]
        for chunk in reversed(chunks):
            next_page = self._new_directory_page(chunk, depth=new_depth,
                                                 next_page=next_page)
        # split steps (2)/(3) applied to the chain: a durable old chain
        # becomes the previous directory (recycled after the next sync); a
        # never-durable one is recycled now and the existing previous
        # chain is kept as the recovery source
        rbuf = self.file.pin(root)
        try:
            old_durable = self.engine.sync_state.synced_since_init(
                NodeView(rbuf.data, self.page_size).sync_token)
        finally:
            self.file.unpin(rbuf)
        mbuf = self.file.pin_meta()
        try:
            meta = MetaView(mbuf.data, self.page_size)
            prev = root if old_durable else meta.prev_root
            meta.set_root(next_page, prev, self._token())
            meta.height = new_depth
            self.file.mark_dirty(mbuf)
        finally:
            self.file.unpin(mbuf)
        page_no = root
        while page_no != INVALID_PAGE:
            buf = self.file.pin(page_no)
            try:
                nxt = NodeView(buf.data, self.page_size).right_peer
            finally:
                self.file.unpin(buf)
            if old_durable:
                self.file.free_after_sync(page_no)
            else:
                self.file.free(page_no)
            page_no = nxt
        self._m_dir_doublings.inc()
        self.engine.sync_state.note_split()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check(self) -> list[tuple[bytes, TID]]:
        """Validate the whole index: directory coverage, bucket prefixes,
        buddy-slot agreement; returns all (key, tid) pairs."""
        depth = self.global_depth
        pairs = []
        for slot in range(1 << depth):
            bucket, _prev = self._dir_read(slot)
            buf = self.file.pin(bucket)
            try:
                view = NodeView(buf.data, self.page_size)
                if not valid_magic(buf.data):
                    raise TreeError(f"slot {slot}: unreadable bucket")
                local = view.level
                if local > depth:
                    raise TreeError(
                        f"slot {slot}: local depth {local} > global {depth}")
                if local and (slot >> (depth - local)) != view.lsn:
                    raise TreeError(
                        f"slot {slot}: bucket prefix {view.lsn:#x} does "
                        f"not cover the slot")
                if slot % (1 << (depth - local)) == 0:
                    for i in range(view.n_keys):
                        key = view.key_at(i)
                        h = hash_key(key)
                        if local and self._slot_for(h, local) != view.lsn:
                            raise TreeError(
                                f"bucket {bucket}: key hashes elsewhere")
                        pairs.append((key, view.tid_at(i)))
            finally:
                self.file.unpin(buf)
        keys = [k for k, _ in pairs]
        if len(set(keys)) != len(keys):
            raise TreeError("duplicate keys across buckets")
        return pairs
