"""NodeView: line-table operations, crash-safe orderings, backup region."""

# page-layer unit tests: raw NodeViews over bytearrays with hand-rolled
# tokens — there is no buffer pool to dirty and no SyncState to consult
# (R012 is the per-path form of the same dirty discipline)
# lint: disable=R004,R012

import random
import struct

import pytest

from repro.constants import PAGE_INTERNAL, PAGE_LEAF
from repro.core import items as I
from repro.core.keys import TID
from repro.core.nodeview import BACKUP_RECORD_SIZE, NodeView
from repro.errors import PageError, PageFullError

PAGE = 512


def leaf_view(keys=()):
    view = NodeView(bytearray(PAGE), PAGE)
    view.init_page(PAGE_LEAF, level=0, sync_token=5)
    for i, key in enumerate(keys):
        blob = I.pack_leaf_item(key, TID(1, i))
        slot, _ = view.search(key)
        view.insert_item(slot, blob)
    return view


def k(i):
    return i.to_bytes(4, "big")


# -- basics -----------------------------------------------------------------

def test_init_page_sets_header():
    view = leaf_view()
    assert view.is_leaf
    assert view.n_keys == 0
    assert view.sync_token == 5
    assert view.free_space() == PAGE - 64


def test_insert_and_read_back_sorted():
    view = leaf_view([k(3), k(1), k(2)])
    assert [view.key_at(i) for i in range(3)] == [k(1), k(2), k(3)]
    assert view.tid_at(0).line == 1   # k(1) was inserted second


def test_search_exact_and_miss():
    view = leaf_view([k(10), k(20), k(30)])
    assert view.search(k(20)) == (1, True)
    assert view.search(k(25)) == (2, False)
    assert view.search(k(5)) == (0, False)
    assert view.search(k(99)) == (3, False)


def test_min_max_key():
    view = leaf_view([k(5), k(9), k(7)])
    assert view.min_key() == k(5)
    assert view.max_key() == k(9)


def test_insert_out_of_range_index_rejected():
    view = leaf_view([k(1)])
    with pytest.raises(PageError):
        view.insert_item(5, I.pack_leaf_item(k(2), TID(1, 1)))


def test_page_fills_up():
    view = leaf_view()
    blob = I.pack_leaf_item(k(0), TID(1, 1))
    capacity = (PAGE - 64) // (len(blob) + 2)
    for i in range(capacity):
        view.insert_item(i, I.pack_leaf_item(k(i), TID(1, i)))
    assert not view.can_fit(len(blob))
    with pytest.raises(PageFullError):
        view.insert_item(capacity, blob)


# -- the paper's crash-safe insert ordering (Section 3.3) --------------------

def test_mid_insert_snapshots_always_detectable():
    """Capture the page bytes between every byte-write step of an insert:
    each intermediate image must be either the pre-insert page or contain
    a detectable duplicate line-table offset."""
    view = leaf_view([k(i) for i in range(0, 20, 2)])
    before = bytes(view.buf)
    snapshots = []
    view.insert_item(3, I.pack_leaf_item(k(5), TID(1, 99)),
                     step_hook=lambda label: snapshots.append(
                         (label, bytes(view.buf))))
    assert len(snapshots) >= 3
    for label, image in snapshots:
        snap_view = NodeView(bytearray(image), PAGE)
        dup = snap_view.find_intra_page_inconsistency()
        unchanged_table = image[64:snap_view.lower] == \
            before[64:NodeView(bytearray(before), PAGE).lower]
        assert dup is not None or unchanged_table, label


def test_intra_page_repair_restores_old_page():
    """Repairing a mid-insert image must yield exactly the pre-insert key
    set (Section 3.3.2: delete the duplicate entry)."""
    view = leaf_view([k(i) for i in range(0, 20, 2)])
    keys_before = list(view.keys())
    images = []
    view.insert_item(3, I.pack_leaf_item(k(5), TID(1, 99)),
                     step_hook=lambda label: images.append(bytes(view.buf)))
    for image in images:
        snap = NodeView(bytearray(image), PAGE)
        snap.repair_intra_page()
        assert snap.find_intra_page_inconsistency() is None
        assert list(snap.keys()) == keys_before


def first_adjacent_duplicate(view):
    """The vet as one Python step per entry: the reference the C-level
    clean test must agree with."""
    prev = None
    for i in range(view.n_keys):
        off = struct.unpack_from("<H", view.buf, 64 + 2 * i)[0]
        if off == prev:
            return i
        prev = off
    return None


def vet_outcome(vet, view):
    try:
        return vet(view)
    except struct.error:
        return "overrun"


@pytest.mark.parametrize("seed", range(4))
def test_intra_page_vet_agrees_with_a_loop_over_every_entry(seed):
    rng = random.Random(seed)
    lines = (PAGE - 64) // 2
    shapes = {"clean": 0, "adjacent": 0, "apart": 0, "overrun": 0}
    for _ in range(400):
        view = NodeView(bytearray(PAGE), PAGE)
        shape = rng.choice(sorted(shapes))
        n = rng.randrange(lines + 1, lines + 40) if shape == "overrun" \
            else rng.randrange(2, lines + 1)
        offsets = rng.sample(range(64, PAGE), min(n, lines))
        if shape == "adjacent" or (shape == "overrun" and rng.random() < .5):
            at = rng.randrange(1, len(offsets))
            offsets[at] = offsets[at - 1]
        elif shape == "apart" and n > 2:
            at = rng.randrange(2, n)
            offsets[at] = offsets[rng.randrange(at - 1)]
        view.n_keys = n
        struct.pack_into("<%dH" % len(offsets), view.buf, 64, *offsets)
        expected = vet_outcome(first_adjacent_duplicate, view)
        assert vet_outcome(NodeView.find_intra_page_inconsistency,
                           view) == expected, (shape, offsets)
        shapes[shape] += 1
    assert all(shapes.values())


def test_delete_item_shifts_left():
    view = leaf_view([k(1), k(2), k(3)])
    view.delete_item(1)
    assert list(view.keys()) == [k(1), k(3)]
    assert view.n_keys == 2


def test_delete_out_of_range_rejected():
    view = leaf_view([k(1)])
    with pytest.raises(PageError):
        view.delete_item(1)


# -- compaction ---------------------------------------------------------------

def test_compact_reclaims_dead_item_bytes():
    view = leaf_view([k(i) for i in range(10)])
    for _ in range(5):
        view.delete_item(0)
    free_before = view.free_space()
    view.compact()
    assert view.free_space() > free_before
    assert list(view.keys()) == [k(i) for i in range(5, 10)]


def test_insert_compacts_when_fragmented():
    view = leaf_view()
    blob_size = len(I.pack_leaf_item(k(0), TID(1, 0)))
    capacity = (PAGE - 64) // (blob_size + 2)
    for i in range(capacity):
        view.insert_item(i, I.pack_leaf_item(k(i), TID(1, i)))
    view.delete_item(0)   # dead bytes remain in the heap
    # contiguous space is only the freed line entry, but compaction makes
    # room for the item
    view.insert_item(view.n_keys, I.pack_leaf_item(k(999), TID(1, 1)))
    assert view.n_keys == capacity


# -- replace_items -------------------------------------------------------------

def test_replace_items_preserves_identity_fields():
    view = leaf_view([k(1)])
    view.left_peer = 9
    view.right_peer = 10
    blobs = [I.pack_leaf_item(k(i), TID(2, i)) for i in (4, 5, 6)]
    view.replace_items(blobs)
    assert list(view.keys()) == [k(4), k(5), k(6)]
    assert view.left_peer == 9
    assert view.right_peer == 10
    assert view.is_leaf


def test_replace_items_overflow_rejected():
    view = leaf_view()
    big = I.pack_leaf_item(bytes(PAGE), TID(1, 1))
    with pytest.raises(PageFullError):
        view.replace_items([big])


# -- reorg backup region (Section 3.4) ------------------------------------------

def backed_up_view(live_low=True):
    view = NodeView(bytearray(PAGE), PAGE)
    view.init_page(PAGE_LEAF, level=0, sync_token=8)
    live = [I.pack_leaf_item(k(i), TID(1, i)) for i in range(5)]
    backup = [I.pack_leaf_item(k(i), TID(1, i)) for i in range(5, 10)]
    if not live_low:
        live, backup = backup, live
    view.replace_items(live)
    view.write_backup(backup, prev_total=10, live_is_low=live_low,
                      old_left_peer=3, old_left_token=30,
                      old_right_peer=4, old_right_token=40)
    return view


def test_backup_layout_and_accessors():
    view = backed_up_view()
    assert view.n_keys == 5
    assert view.backup_count == 5
    assert view.prev_n_keys == 10
    assert view.live_is_low
    assert view.backup_record() == (3, 30, 4, 40)
    backup_keys = [I.item_key(b, 0) for b in view.backup_items()]
    assert backup_keys == [k(i) for i in range(5, 10)]


def test_restore_backup_recreates_original_low_live():
    view = backed_up_view(live_low=True)
    view.restore_backup()
    assert view.n_keys == 10
    assert list(view.keys()) == [k(i) for i in range(10)]
    assert view.prev_n_keys == 0
    assert view.backup_count == 0
    assert view.left_peer == 3 and view.left_peer_token == 30
    assert view.right_peer == 4 and view.right_peer_token == 40
    assert view.new_page == 0


def test_restore_backup_recreates_original_high_live():
    """When the live half is the high half, restore must interleave the
    line tables back into key order."""
    view = backed_up_view(live_low=False)
    view.restore_backup()
    assert list(view.keys()) == [k(i) for i in range(10)]


def test_reclaim_backup_drops_duplicates():
    view = backed_up_view()
    view.new_page = 77
    free_before = view.free_space()
    view.reclaim_backup()
    assert view.prev_n_keys == 0
    assert view.backup_count == 0
    assert view.new_page == 0
    assert list(view.keys()) == [k(i) for i in range(5)]
    assert view.free_space() > free_before


def test_insert_into_backed_up_page_rejected():
    """The reclamation check must run first (Section 3.4)."""
    view = backed_up_view()
    with pytest.raises(PageError):
        view.insert_item(0, I.pack_leaf_item(k(99), TID(1, 0)))
    with pytest.raises(PageError):
        view.delete_item(0)


def test_double_backup_rejected():
    view = backed_up_view()
    with pytest.raises(PageError):
        view.write_backup([], prev_total=1, live_is_low=True,
                          old_left_peer=0, old_left_token=0,
                          old_right_peer=0, old_right_token=0)


def test_backup_record_size_constant():
    assert BACKUP_RECORD_SIZE == 24
