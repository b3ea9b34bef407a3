"""Page-reorganization split semantics — Figure 2 and the reclamation
check's three token cases."""

import pytest

from repro import TID, ReorgBLinkTree, StorageEngine
from repro.core import items as I
from repro.core.nodeview import NodeView
from repro.storage.sync import tokens_match
from repro.workload import random_permutation

from ..conftest import fill_tree, tid_for

PAGE = 512


@pytest.fixture
def engine():
    return StorageEngine.create(page_size=PAGE, seed=7)


@pytest.fixture
def tree(engine):
    return ReorgBLinkTree.create(engine, "ix", codec="uint32")


def split_once(tree, start=0):
    i = start
    splits = tree.splits.value
    while tree.splits.value == splits:
        tree.insert(i, tid_for(i))
        i += 1
    return i


def find_backed_up_leaf(tree):
    for page_no in range(1, tree.file.n_pages):
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, PAGE)
            if view.is_leaf and view.prev_n_keys:
                return page_no
        finally:
            tree.file.unpin(buf)
    return None


def test_figure2_structure_after_split(tree):
    """After the split: Pa (remapped to P's slot) holds the live half plus
    a backup of Pb's half; Pb is fresh with prevNKeys zero; Pa.newPage
    names Pb."""
    split_once(tree)
    pa_no = find_backed_up_leaf(tree)
    assert pa_no is not None
    buf = tree.file.pin(pa_no)
    try:
        pa = NodeView(buf.data, PAGE)
        assert pa.prev_n_keys == pa.n_keys + pa.backup_count
        assert pa.new_page != 0
        assert pa.live_is_low          # ascending: the new key went high
        pb_no = pa.new_page
        backup_keys = [I.item_key(b, 0) for b in pa.backup_items()]
        pbuf = tree.file.pin(pb_no)
        try:
            pb = NodeView(pbuf.data, PAGE)
            assert pb.prev_n_keys == 0
            # Pb holds the backup half plus the key that caused the split
            pb_keys = list(pb.keys())
            assert pb_keys[:len(backup_keys)] == backup_keys
            assert len(pb_keys) == len(backup_keys) + 1
            pb_token = pb.sync_token
        finally:
            tree.file.unpin(pbuf)
        assert tokens_match(pa.sync_token, pb_token)
        assert tokens_match(pa.sync_token,
                            tree.engine.sync_state.token())
    finally:
        tree.file.unpin(buf)


def test_pa_remapped_onto_p_slot(tree):
    """Step (5): the reorganized page takes the original page's number —
    no new page number appears for the live half."""
    end = split_once(tree)          # first split also grows the root
    tree.engine.sync()
    pages_before = tree.file.n_pages
    splits_before = tree.splits.value
    i = end
    while tree.splits.value == splits_before:   # non-root leaf split
        tree.insert(i, tid_for(i))
        i += 1
    # exactly one page was allocated (Pb); Pa reused P's slot
    assert tree.file.n_pages == pages_before + 1


def test_reclaim_case1_blocks_for_sync(tree):
    """Insert into a page whose backup is from the current window: the
    update must force a sync first (the paper's 'block for a sync')."""
    end = split_once(tree)
    pa_no = find_backed_up_leaf(tree)
    buf = tree.file.pin(pa_no)
    try:
        pa = NodeView(buf.data, PAGE)
        low_key = int.from_bytes(pa.min_key(), "big")
    finally:
        tree.file.unpin(buf)
    syncs_before = tree.engine.syncs_completed.value
    assert tree.sync_stalls.value == 0
    # deleting a key on Pa triggers the reclamation check
    tree.delete(low_key)
    assert tree.sync_stalls.value == 1
    assert tree.engine.syncs_completed.value == syncs_before + 1
    buf = tree.file.pin(pa_no)
    try:
        pa = NodeView(buf.data, PAGE)
        assert pa.prev_n_keys == 0
        assert pa.new_page == 0
    finally:
        tree.file.unpin(buf)


def test_reclaim_case2_after_sync_is_free(tree):
    """After an ordinary sync the backup is reclaimed without blocking."""
    split_once(tree)
    tree.engine.sync()
    pa_no = find_backed_up_leaf(tree)
    with tree.file.pinned(pa_no) as buf:
        low_key = int.from_bytes(NodeView(buf.data, PAGE).min_key(), "big")
    syncs_before = tree.engine.syncs_completed.value
    tree.delete(low_key)
    assert tree.sync_stalls.value == 0
    assert tree.engine.syncs_completed.value == syncs_before
    with tree.file.pinned(pa_no) as buf:
        assert NodeView(buf.data, PAGE).prev_n_keys == 0


@pytest.mark.parametrize("synced", [False, True])
def test_update_resolves_backup_keys_before_the_write(tree, synced):
    """An update of a key on Pa runs the same reclamation check as an
    insert or a delete: the backup is resolved — by a forced sync in the
    window of the split (case 1), for free after one (case 2) — before
    the TID is rewritten, and no key moves."""
    split_once(tree)
    if synced:
        tree.engine.sync()
    pa_no = find_backed_up_leaf(tree)
    with tree.file.pinned(pa_no) as buf:
        pa = NodeView(buf.data, PAGE)
        keys = list(pa.keys())
    key = int.from_bytes(keys[len(keys) // 2], "big")
    syncs_before = tree.engine.syncs_completed.value
    assert tree.update(key, TID(99, 9)) is True
    stalls = 0 if synced else 1
    assert tree.sync_stalls.value == stalls
    assert tree.engine.syncs_completed.value == syncs_before + stalls
    with tree.file.pinned(pa_no) as buf:
        pa = NodeView(buf.data, PAGE)
        assert pa.prev_n_keys == 0 and pa.backup_count == 0
        assert list(pa.keys()) == keys
    assert tree.lookup(key) == TID(99, 9)
    tree.check()


def test_descending_split_puts_new_key_in_low_half(engine):
    """'Pb is the page that will contain the new key ... Pa may be either
    the left or the right child': descending inserts make the live half
    the high half."""
    tree = ReorgBLinkTree.create(engine, "ix", codec="uint32")
    i = 10_000
    splits = tree.splits.value
    while tree.splits.value == splits:
        tree.insert(i, tid_for(i))
        i -= 1
    pa_no = find_backed_up_leaf(tree)
    buf = tree.file.pin(pa_no)
    try:
        pa = NodeView(buf.data, PAGE)
        assert not pa.live_is_low
        backup_keys = [I.item_key(b, 0) for b in pa.backup_items()]
        assert backup_keys[-1] < pa.min_key()
    finally:
        tree.file.unpin(buf)


def test_no_prev_ptrs_anywhere(tree):
    fill_tree(tree, range(2500), sync_every=100)
    assert tree.height >= 3
    stack = [tree._root_page()]
    while stack:
        page_no = stack.pop()
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, PAGE)
            assert not view.shadow_items
            if not view.is_leaf:
                stack.extend(view.child_at(i) for i in range(view.n_keys))
        finally:
            tree.file.unpin(buf)


def test_random_workload_forces_stalls(tree):
    """The paper: page reorganization 'performs poorly when the same index
    page splits many times during the same transaction' — random inserts
    with rare syncs hit reclamation case 1 repeatedly."""
    for key in random_permutation(800, seed=3):
        tree.insert(key, tid_for(key))
    assert tree.sync_stalls.value > 0
    tree.engine.sync()
    assert len(tree.check()) == 800


def test_backup_space_reserved_at_insert_time(tree):
    """_page_can_fit keeps 24 bytes of headroom so a future split can
    always write its backup record."""
    fill_tree(tree, range(600), sync_every=50)
    # every page must retain at least the record's headroom or have no
    # backup pending
    for page_no in range(1, tree.file.n_pages):
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, PAGE)
            if view.is_leaf and view.prev_n_keys == 0:
                assert view.free_space() >= 0
        finally:
            tree.file.unpin(buf)
