"""Buffer pool: pinning, dirty tracking, remapping, eviction."""

# buffer-layer unit tests: pin/unpin and eviction ARE the subject under
# test, so the paired-call discipline is exercised deliberately raw
# (R011/R013 are the path-sensitive forms of the same pin discipline)
# lint: disable=R002,R011,R013

import gc
import random
import weakref
from collections import OrderedDict

import pytest

from repro.analysis.sanitizer import suspended
from repro.errors import BufferError_
from repro.obs import get_registry, metric_key, scoped_trace
from repro.storage import BufferPool, RecordingPolicy, SimulatedDisk, \
    StorageEngine


def make_pool(capacity=None):
    disk = SimulatedDisk("t", 128)
    return disk, BufferPool(disk, capacity=capacity)


def test_pin_faults_in_from_disk():
    disk, pool = make_pool()
    disk.write_page(2, bytes([9]) * 128)
    buf = pool.pin(2)
    assert bytes(buf.data) == bytes([9]) * 128
    assert buf.pin_count == 1
    assert pool.stats.misses == 1


def test_pin_twice_shares_frame():
    _, pool = make_pool()
    a = pool.pin(1)
    b = pool.pin(1)
    assert a is b
    assert a.pin_count == 2
    assert pool.stats.hits == 1


def test_unpin_below_zero_rejected():
    _, pool = make_pool()
    buf = pool.pin(1)
    pool.unpin(buf)
    with pytest.raises(BufferError_):
        pool.unpin(buf)


def test_mark_dirty_requires_pin():
    _, pool = make_pool()
    buf = pool.pin(1)
    pool.unpin(buf)
    with pytest.raises(BufferError_):
        pool.mark_dirty(buf)


def test_dirty_batch_snapshot():
    _, pool = make_pool()
    buf = pool.pin(3)
    buf.data[0] = 0xAB
    pool.mark_dirty(buf)
    batch = pool.dirty_batch()
    assert list(batch) == [3]
    assert batch[3][0] == 0xAB
    buf.data[0] = 0xCD   # snapshot must not alias the live buffer
    assert batch[3][0] == 0xAB
    pool.clear_dirty(iter([3]))
    assert pool.dirty_batch() == {}


def test_remap_rebinds_virtual_buffer():
    _, pool = make_pool()
    old = pool.pin(5)
    virtual = pool.allocate_virtual(bytearray(b"\x01" * 128))
    newbuf = pool.remap(virtual, old)
    assert newbuf.page_no == 5
    assert newbuf.pin_count == 1
    assert newbuf.dirty
    assert pool.pin(5) is newbuf
    assert old.page_no is None


def test_remap_requires_single_pin_on_target():
    _, pool = make_pool()
    old = pool.pin(5)
    pool.pin(5)  # second pin
    virtual = pool.allocate_virtual(bytearray(128))
    with pytest.raises(BufferError_):
        pool.remap(virtual, old)


def test_remap_rejects_non_virtual_source():
    _, pool = make_pool()
    a = pool.pin(1)
    b = pool.pin(2)
    with pytest.raises(BufferError_):
        pool.remap(a, b)


def test_pin_count_query_for_allocator():
    _, pool = make_pool()
    assert pool.pin_count(7) == 0
    buf = pool.pin(7)
    assert pool.pin_count(7) == 1
    pool.unpin(buf)
    assert pool.pin_count(7) == 0


def test_eviction_drops_clean_unpinned_lru():
    _, pool = make_pool(capacity=2)
    a = pool.pin(1)
    pool.unpin(a)
    b = pool.pin(2)
    pool.unpin(b)
    c = pool.pin(3)   # exceeds capacity: page 1 (LRU, clean) evicted
    pool.unpin(c)
    assert 1 not in pool.cached_pages()
    assert set(pool.cached_pages()) == {2, 3}


def test_eviction_never_drops_pinned_or_dirty():
    _, pool = make_pool(capacity=1)
    a = pool.pin(1)
    pool.mark_dirty(a)
    pool.unpin(a)
    b = pool.pin(2)          # cannot evict dirty page 1
    assert set(pool.cached_pages()) == {1, 2}
    assert pool.stats.overflows == 1
    pool.unpin(b)


def test_drop_rejects_pinned():
    _, pool = make_pool()
    buf = pool.pin(1)
    with pytest.raises(BufferError_):
        pool.drop(1)
    pool.unpin(buf)
    pool.drop(1)
    assert pool.cached_pages() == []


# -- volatile frames under capacity pressure (the eviction bugfix) --------

def _note_volatile_page(pool, page_no, marker=0x5A):
    """Pin a page, mutate it buffer-only, and advertise the divergence."""
    buf = pool.pin(page_no)
    buf.data[0] = marker
    pool.note_volatile(buf)     # deliberately NOT marked dirty
    pool.unpin(buf)
    return buf


def test_volatile_frame_survives_capacity_pressure():
    """Regression: a clean, unpinned frame carrying a buffer-only
    advertisement (shadow split's ``new_page``) must not be evicted —
    eviction would silently discard the advertisement before the sync
    that retires it."""
    _, pool = make_pool(capacity=2)
    _note_volatile_page(pool, 1)
    for p in (2, 3, 4):                     # well past capacity
        pool.unpin(pool.pin(p))
    assert 1 in pool.cached_pages()
    assert pool.is_volatile(1)
    buf = pool.pin(1)
    assert buf.data[0] == 0x5A              # advertisement intact
    pool.unpin(buf)
    assert pool.stats.volatile_exempt > 0


def test_eviction_skips_volatile_and_takes_next_lru():
    _, pool = make_pool(capacity=2)
    _note_volatile_page(pool, 1)            # LRU but exempt
    pool.unpin(pool.pin(2))
    pool.unpin(pool.pin(3))                 # evicts 2, not 1
    assert set(pool.cached_pages()) == {1, 3}
    assert pool.stats.evictions == 1
    assert pool.stats.volatile_exempt >= 1


def test_all_volatile_counts_overflow():
    _, pool = make_pool(capacity=1)
    _note_volatile_page(pool, 1)
    pool.unpin(pool.pin(2))                 # nothing evictable
    assert set(pool.cached_pages()) == {1, 2}
    assert pool.stats.overflows == 1


# -- a miss costs what it evicts ------------------------------------------------

class VisitCountingFrames(OrderedDict):
    """The pool's frame table, counting the frames a walk visits."""

    visited = 0

    def items(self):
        for item in super().items():
            self.visited += 1
            yield item


def test_a_miss_on_a_full_pool_visits_only_what_it_evicts_or_skips():
    _, pool = make_pool(capacity=1000)
    held = pool.pin(1)                      # pinned, LRU
    buf = pool.pin(2)                       # dirty
    pool.mark_dirty(buf)
    pool.unpin(buf)
    _note_volatile_page(pool, 3)            # volatile
    for page_no in range(4, 1001):
        pool.unpin(pool.pin(page_no))
    counting = pool._frames = VisitCountingFrames(pool._frames)
    exempt = pool.stats.volatile_exempt
    with scoped_trace() as trace:
        pool.unpin(pool.pin(1001))
    assert counting.visited == 4            # three skipped, one evicted
    assert 4 not in pool.cached_pages() and len(pool.cached_pages()) == 1000
    assert pool.stats.evictions == 1 and pool.stats.overflows == 0
    assert pool.stats.volatile_exempt == exempt + 1
    assert [e.page for e in trace.events("evict")] == [4]
    pool.unpin(held)


def victims_of_a_full_walk(pool, capacity):
    """What a miss's eviction must drop, as a walk over every frame
    picks it: the fresh frame joins pinned at the MRU end, then clean,
    unpinned, non-volatile frames go LRU first until the pool fits.
    Also whether the pool stays over its capacity (an overflow)."""
    excess = len(pool.cached_pages()) + 1 - capacity
    victims = [page_no for page_no, buf in pool._frames.items()
               if not (buf.pin_count or buf.dirty
                       or pool.is_volatile(page_no))]
    return victims[:max(0, excess)], len(victims) < excess


@pytest.mark.parametrize("seed", range(6))
def test_lazy_eviction_drops_the_victims_of_a_full_walk(seed):
    rng = random.Random(seed)
    capacity = 8
    _, pool = make_pool(capacity=capacity)
    held = []
    for _ in range(800):
        page_no = rng.randrange(1, 20)
        if page_no not in pool.cached_pages():
            expected, overflows = victims_of_a_full_walk(pool, capacity)
            before = pool.stats.overflows
            with scoped_trace() as trace:
                pool.unpin(pool.pin(page_no))
            assert [e.page for e in trace.events("evict")] == expected
            assert not set(expected) & set(pool.cached_pages())
            assert pool.stats.overflows == before + overflows
            continue
        # a hit changes what the next walk may skip
        roll = rng.random()
        if roll < 0.08:
            held.append(pool.pin(page_no))
        elif roll < 0.2 and held:
            pool.unpin(held.pop(rng.randrange(len(held))))
        elif roll < 0.5:
            buf = pool.pin(page_no)
            pool.mark_dirty(buf)
            pool.unpin(buf)
        elif roll < 0.53 and not pool._frames[page_no].dirty:
            _note_volatile_page(pool, page_no)
        elif roll < 0.55:
            pool.clear_dirty()              # a sync: clean, notes retired
        else:
            pool.unpin(pool.pin(page_no))
    for buf in held:
        pool.unpin(buf)


def test_sync_retires_volatile_notes():
    """clear_dirty (sync completion) ends the advertisement: the clean
    divergent frame is dropped so later reads fault the durable image."""
    disk, pool = make_pool(capacity=2)
    disk.write_page(1, bytes([7]) * 128)
    _note_volatile_page(pool, 1)
    pool.clear_dirty(iter([]))
    assert 1 not in pool.cached_pages()
    assert not pool.is_volatile(1)
    buf = pool.pin(1)
    assert buf.data[0] == 7                 # durable image, not the note
    pool.unpin(buf)


def test_mark_dirty_supersedes_volatile_note():
    _, pool = make_pool(capacity=2)
    buf = pool.pin(1)
    buf.data[0] = 0x5A
    pool.note_volatile(buf)
    pool.mark_dirty(buf)                    # divergence now sync-visible
    pool.unpin(buf)
    assert not pool.is_volatile(1)


def test_drop_and_remap_discard_volatile_note():
    _, pool = make_pool()
    _note_volatile_page(pool, 1)
    pool.drop(1)
    assert not pool.is_volatile(1)
    virt = pool.allocate_virtual(bytearray(128))
    old = pool.pin(2)
    old.data[0] = 0x5A
    pool.note_volatile(old)
    pool.remap(virt, old)
    assert not pool.is_volatile(2)
    pool.unpin(virt)


def test_the_registry_keeps_a_dead_pools_counts_not_its_frames():
    # every restart builds new pools; the process-wide registry must
    # keep what the old ones counted without keeping their pages alive
    # (it used to: 13.7 MB per recovery of a 700-page index)
    key = metric_key("buffer_pool.misses", {"file": "t"})
    before = get_registry().snapshot()["counters"].get(key, 0)
    _, pool = make_pool()
    pool.unpin(pool.pin(3))
    pool.unpin(pool.pin(4))
    gone = weakref.ref(pool)
    del pool
    gc.collect()
    assert gone() is None
    assert get_registry().snapshot()["counters"][key] == before + 2


# -- a sync costs what it writes ----------------------------------------------

class CountingFrames(OrderedDict):
    """The pool's frame table, refusing to be walked and counting the
    frames looked up in it."""

    def __init__(self, frames):
        super().__init__(frames)
        self.looked_up = 0
        self.walks = 0

    def get(self, page_no, default=None):
        self.looked_up += 1
        return super().get(page_no, default)

    def __getitem__(self, page_no):
        self.looked_up += 1
        return super().__getitem__(page_no)

    def _walk(self):
        self.walks += 1
        return iter(())
    __iter__ = keys = values = items = _walk


def test_a_sync_of_three_dirty_pages_in_a_thousand_touches_three_frames():
    engine = StorageEngine.create(page_size=128, seed=4)
    file = engine.create_file("t")
    pool = file.pool
    for page_no in range(1, 1001):
        pool.unpin(pool.pin(page_no))
    for page_no in (700, 5, 312):
        buf = pool.pin(page_no)
        buf.data[0] = page_no % 251
        pool.mark_dirty(buf)
        pool.unpin(buf)
    assert len(pool.cached_pages()) == 1000
    counting = pool._frames = CountingFrames(pool._frames)
    recorder = RecordingPolicy()
    assert pool.dirty_frame_count() == engine.dirty_page_count() == 3
    # the sanitizing pool's mutated-but-clean check walks every frame
    # ahead of each batch — that is its job, and not the pool's cost
    with suspended():
        engine.sync(recorder)
    assert counting.walks == 0
    assert counting.looked_up == 3          # clear_dirty's, one per page
    assert sorted(recorder.batches[0]) == [("t", 5), ("t", 312), ("t", 700)]
    assert pool.dirty_frame_count() == 0 and not pool.dirty_batch()
    assert file.disk.read_page(312)[0] == 312 % 251


def frames_order_batch(pool):
    """``dirty_batch`` as it was: a walk over every resident frame."""
    return {page_no: bytes(buf.data)
            for page_no, buf in pool._frames.items()
            if buf.dirty and page_no is not None}


@pytest.mark.parametrize("capacity", [None, 24])
def test_dirty_batch_keeps_the_order_of_the_frame_table(capacity):
    """The engine shuffles the batch with its seeded rng and a crash
    policy indexes into the result (``CrashOnNthSync(n, keep=[...])``), so
    the batch must list its pages in the order the walk over the frame
    table listed them — first-pin order in an unbounded pool, LRU order
    in a bounded one, a remapped frame last.  The dirty set is unordered;
    every frame carries the stamp of its last move to the table's end and
    the batch is sorted by it."""
    rng = random.Random(capacity)
    _, pool = make_pool(capacity)
    for step in range(600):
        page_no = rng.randrange(1, 60)
        buf = pool.pin(page_no)
        roll = rng.random()
        if roll < 0.3:
            buf.data[1] = step % 251
            pool.mark_dirty(buf)
        elif roll < 0.35 and buf.pin_count == 1:
            virtual = pool.allocate_virtual(bytearray(128))
            buf = pool.remap(virtual, buf)
        pool.unpin(buf)
        if step % 7 == 0:
            assert list(pool.dirty_batch().items()) \
                == list(frames_order_batch(pool).items())
            assert pool.dirty_frame_count() == len(frames_order_batch(pool))
        if step % 90 == 89:
            pool.clear_dirty(iter(list(pool.dirty_batch())[::2]))
            assert list(pool.dirty_batch()) \
                == list(frames_order_batch(pool))
    assert pool.dirty_batch()
    pool.clear_dirty()
    assert not pool.dirty_batch() and not frames_order_batch(pool)


def test_same_seed_same_shuffled_batch_as_the_frame_walk():
    """End to end: an engine whose pool builds its batch from the dirty
    set hands the crash policy the very list one that walks the frame
    table would."""
    batches = []
    for walk in (False, True):
        engine = StorageEngine.create(page_size=128, seed=11)
        file = engine.create_file("t")
        if walk:
            file.pool.dirty_batch = lambda pool=file.pool: \
                frames_order_batch(pool)
        rng = random.Random(2)
        recorder = RecordingPolicy()
        for round_ in range(6):
            for _ in range(40):
                buf = file.pin(rng.randrange(1, 200))
                buf.data[2] = round_
                file.mark_dirty(buf)
                file.unpin(buf)
            engine.sync(recorder)
        batches.append(recorder.batches)
    assert batches[0] == batches[1] and len(batches[0][0]) > 20
