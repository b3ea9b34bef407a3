"""Shadow-split semantics — the Figure 1 structure and split steps 1-5."""

import pytest

from repro import TID, ShadowBLinkTree, StorageEngine
from repro.core.nodeview import NodeView
from repro.storage.sync import tokens_match

from ..conftest import fill_tree, tid_for

PAGE = 512


@pytest.fixture
def engine():
    return StorageEngine.create(page_size=PAGE, seed=7)


@pytest.fixture
def tree(engine):
    return ShadowBLinkTree.create(engine, "ix", codec="uint32")


def first_split_state(tree):
    """Insert until exactly one leaf split has happened; return the parent
    (new root) view, pinned via a fresh read."""
    i = 0
    while tree.splits.value == 0:
        tree.insert(i, tid_for(i))
        i += 1
    root_no = tree._root_page()
    buf = tree.file.pin(root_no)
    return root_no, buf, NodeView(buf.data, PAGE), i


def test_split_produces_triples_with_prev(tree):
    """Figure 1: after a split the parent holds <key, child, prev> triples
    and both prevs name the pre-split page."""
    root_no, buf, view, _ = first_split_state(tree)
    try:
        assert not view.is_leaf
        assert view.n_keys == 2
        assert view.shadow_items
        prev0, prev1 = view.prev_at(0), view.prev_at(1)
        child0, child1 = view.child_at(0), view.child_at(1)
        assert child0 != child1
        # the original page was never synced (split happened inside the
        # first window), so step (3) applies: prev comes from K1's prev,
        # which for a first root split is the meta prev_root (page 0 = none)
        assert prev0 == prev1
    finally:
        tree.file.unpin(buf)


def test_split_after_sync_uses_old_page_as_prev(tree):
    """Step (2): if P is durable, both K1 and K2 point their prevs at P and
    P goes to the deferred freelist."""
    # grow until a root exists and things are synced
    fill_tree(tree, range(120), sync_every=30)
    root_no = tree._root_page()
    rbuf = tree.file.pin(root_no)
    try:
        rview = NodeView(rbuf.data, PAGE)
        # the rightmost child (next ascending split target) and its slot
        slot = rview.n_keys - 1
        old_child = rview.child_at(slot)
    finally:
        tree.file.unpin(rbuf)
    pending_before = tree.file.freelist.pending
    splits_before = tree.splits.value

    i = 120
    while tree.splits.value == splits_before:
        tree.insert(i, tid_for(i))
        i += 1

    rbuf = tree.file.pin(root_no)
    try:
        rview = NodeView(rbuf.data, PAGE)
        # K1 (same slot) and the new K2 both shadow the old child
        assert rview.prev_at(slot) == old_child
        assert rview.prev_at(slot + 1) == old_child
        assert rview.child_at(slot) != old_child
        assert rview.child_at(slot + 1) != old_child
        # P is awaiting the next sync before it can be recycled
        assert tree.file.freelist.pending > pending_before
    finally:
        tree.file.unpin(rbuf)


def test_double_split_same_window_reuses_prev(tree):
    """Step (3): two splits at the same key range between syncs reuse the
    existing prev and recycle the intermediate page immediately."""
    fill_tree(tree, range(120), sync_every=30)
    recycled_before = tree.file.freelist.recycled.value
    free_len_before = len(tree.file.freelist)
    splits_before = tree.splits.value
    i = 120
    # two leaf splits without an intervening sync
    while tree.splits.value < splits_before + 2:
        tree.insert(i, tid_for(i))
        i += 1
    # the second split's P (created by the first split, never synced) was
    # freed immediately
    assert (len(tree.file.freelist) > free_len_before
            or tree.file.freelist.recycled.value > recycled_before)


def test_old_page_content_untouched_by_split(tree):
    """'During the split, the keys on P are neither modified nor
    overwritten' — P's durable image still holds every pre-split key."""
    fill_tree(tree, range(100), sync_every=100)
    root_no = tree._root_page()
    with tree.file.pinned(root_no) as rbuf:
        rview = NodeView(rbuf.data, PAGE)
        victim = rview.child_at(rview.n_keys - 1)
    durable_before = tree.file.disk.durable_image(victim)
    keys_before = list(NodeView(bytearray(durable_before), PAGE).keys())

    splits_before = tree.splits.value
    i = 100
    while tree.splits.value == splits_before:
        tree.insert(i, tid_for(i))
        i += 1
    durable_after = tree.file.disk.durable_image(victim)
    assert list(NodeView(bytearray(durable_after), PAGE).keys()) == \
        keys_before


def test_new_pages_carry_current_sync_token(tree):
    fill_tree(tree, range(100), sync_every=25)
    token = tree.engine.sync_state.token()
    splits_before = tree.splits.value
    i = 100
    while tree.splits.value == splits_before:
        tree.insert(i, tid_for(i))
        i += 1
    root_no = tree._root_page()
    rbuf = tree.file.pin(root_no)
    try:
        rview = NodeView(rbuf.data, PAGE)
        slot = rview.n_keys - 1
        for child_no in (rview.child_at(slot - 1), rview.child_at(slot)):
            cbuf = tree.file.pin(child_no)
            try:
                cview = NodeView(cbuf.data, PAGE)
                if tokens_match(cview.sync_token, token):
                    break
            finally:
                tree.file.unpin(cbuf)
        else:
            pytest.fail("no split product carries the current token")
    finally:
        tree.file.unpin(rbuf)


def test_root_split_moves_meta_pointer_with_prev(tree):
    from repro.core.meta import MetaView
    fill_tree(tree, range(60), sync_every=60)
    mbuf = tree.file.pin_meta()
    try:
        meta = MetaView(mbuf.data, PAGE)
        old_root = meta.root
    finally:
        tree.file.unpin(mbuf)
    root_splits_before = tree.root_splits.value
    i = 60
    while tree.root_splits.value == root_splits_before:
        tree.insert(i, tid_for(i))
        i += 1
    mbuf = tree.file.pin_meta()
    try:
        meta = MetaView(mbuf.data, PAGE)
        assert meta.root != old_root
        assert meta.prev_root == old_root
        assert tokens_match(meta.root_token,
                            tree.engine.sync_state.token())
    finally:
        tree.file.unpin(mbuf)


def test_all_levels_hold_shadow_items(tree):
    fill_tree(tree, range(2500), sync_every=200)
    assert tree.height >= 3
    root_no = tree._root_page()
    stack = [root_no]
    internal_seen = 0
    while stack:
        page_no = stack.pop()
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, PAGE)
            if not view.is_leaf:
                internal_seen += 1
                assert view.shadow_items
                stack.extend(view.child_at(i) for i in range(view.n_keys))
        finally:
            tree.file.unpin(buf)
    assert internal_seen >= 3


def test_advertisement_survives_capacity_pressure_reads():
    """Regression for the volatile-frame eviction bug: a shadow split
    leaves the pre-split page's ``new_page`` advertisement in the buffer
    only (never dirtied).  Under a tiny pool, read pressure used to evict
    that clean frame, silently discarding the advertisement before the
    sync that retires it.  Both the advertisement and every key must
    survive an arbitrary amount of reading before the next sync."""
    engine = StorageEngine.create(page_size=PAGE, seed=7, pool_capacity=4)
    tree = ShadowBLinkTree.create(engine, "ix", codec="uint32")
    # 136 ascending keys leave the last leaf full at the closing sync
    keys = fill_tree(tree, range(136))
    # in-flight window: split without syncing, so the advertisement is
    # buffer-only and its frame is clean
    n = 136
    splits = tree.splits.value
    while tree.splits.value == splits:
        tree.insert(n, tid_for(n))
        keys.append(n)
        n += 1
    pool = tree.file.pool
    volatile = [p for p in pool.cached_pages() if pool.is_volatile(p)]
    assert volatile, "a buffer-only split must leave a volatile frame"
    # capacity pressure: scan + point reads far exceeding the pool size
    for _ in range(3):
        assert [v for v, _ in tree.range_scan()] == keys
        for k in keys:
            assert tree.lookup(k) is not None
    for p in volatile:
        assert p in pool.cached_pages(), "advertisement frame evicted"
        assert pool.is_volatile(p)
        buf = tree.file.pin(p)
        try:
            assert NodeView(buf.data, PAGE).new_page != 0
        finally:
            tree.file.unpin(buf)
    assert pool.stats.volatile_exempt > 0
    # the sync that makes the split durable retires the advertisement
    engine.sync()
    assert not any(pool.is_volatile(p) for p in volatile)
