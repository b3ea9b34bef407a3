"""When a page gets decoded, and what that decode is worth afterwards.

The admission rule has no setting; these tests pin what it observes: a
freshly faulted frame's searches read the bytes until ``n_keys // 16`` of
them have been served that way in this residency, the next one (or any
writer) decodes the key list once, leaf writers keep that list across
their own version bumps, and a frame that leaves the pool takes its node
with it.
"""

import gc
import os
import random
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import CrashError, CrashOnNthSync, StorageEngine, TREE_CLASSES
from repro.core import nodeview
from repro.core.detect import Action

from ..conftest import SMALL_PAGE, fill_tree, tid_for
from ..recovery.helpers import build_to_split, crash_keeping
from .helpers import assert_all_nodes_match_bytes, fresh_node, leaf_page_of

PAGE = SMALL_PAGE


def reopened(kind="shadow", *, n=600, pool_capacity=6, seed=13):
    """A clean *n*-key tree reopened over a small pool: every frame the
    first operations touch is freshly faulted."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    fill_tree(tree, range(0, 2 * n, 2))
    tree.close_clean()
    engine.pool_capacity = pool_capacity
    engine.shutdown()
    engine = StorageEngine.reopen(engine)
    return engine, TREE_CLASSES[kind].open(engine, "ix")


def leaf_frame(tree, key):
    """The resident frame of the leaf a lookup of *key* ends on."""
    assert tree.lookup(key) == tid_for(key)
    return tree.file.pool._frames[leaf_page_of(tree, key)]


@contextmanager
def recorded_decodes():
    """Yields the list of nodes bulk-decoded inside the block."""
    decoded = []
    materialise = nodeview.DecodedNode.materialise

    def recording(node):
        decoded.append(node)
        return materialise(node)
    with mock.patch.object(nodeview.DecodedNode, "materialise", recording):
        yield decoded


# ---------------------------------------------------------------------------
# the admission rule
# ---------------------------------------------------------------------------

def test_searches_read_bytes_until_they_pay_for_a_decode_refault_is_cold():
    engine, tree = reopened()
    buf = leaf_frame(tree, 400)
    node = buf.node
    paid = node.n_keys // 16
    assert paid >= 1
    # byte searches until their number reaches n_keys // 16
    for searches in range(1, paid + 1):
        assert node.keys is None and node.searches == searches
        if searches < paid:
            assert tree.lookup(400) == tid_for(400)
    misses = tree.fastpath.cache_misses
    # the next search while still resident decodes once, then bisects
    assert tree.lookup(400) == tid_for(400)
    assert node.keys == fresh_node(buf).keys
    assert tree.fastpath.cache_misses == misses + 1
    # by now every page on the path is decoded: one bisect per level
    hits = tree.fastpath.cache_hits
    assert tree.lookup(400) == tid_for(400)
    assert tree.fastpath.cache_hits == hits + tree.height
    assert tree.fastpath.cache_misses == misses + 1
    # push the frame out of the 6-frame pool, then come back: cold again
    page_no = buf.page_no
    probe = 0
    while page_no in tree.file.pool._frames:
        tree.lookup(probe)
        probe += 40
    again = leaf_frame(tree, 400)
    assert again is not buf and again.page_no == page_no
    assert again.node.keys is None


@pytest.mark.parametrize("batched", (False, True))
def test_writer_decodes_a_cold_leaf_once_and_keeps_the_list(batched):
    engine, tree = reopened()
    with recorded_decodes() as decoded:
        if batched:
            tree.insert_many([(401, tid_for(401)), (403, tid_for(403))])
        else:
            tree.insert(401, tid_for(401))
        buf = tree.file.pool._frames[leaf_page_of(tree, 401)]
        keys = buf.node.keys
        assert keys is not None and (401).to_bytes(4, "big") in keys
        # 50 more version bumps on the same leaf, no split: the list is
        # maintained in place, never decoded again
        version = buf.version
        for _ in range(25):
            tree.delete(401)
            tree.insert(401, tid_for(401))
        assert buf.version > version
        assert buf.node.keys is keys
        assert sum(node is buf.node for node in decoded) == 1
    assert keys == fresh_node(buf).keys
    assert_all_nodes_match_bytes(tree)


def decoded_leaf_frame(tree, key):
    """The frame of *key*'s leaf, searched until its list is decoded."""
    buf = leaf_frame(tree, key)
    while buf.node.keys is None:
        assert tree.lookup(key) == tid_for(key)
    return buf


def test_unmaintained_bump_drops_the_list_and_the_next_search_redecodes():
    engine, tree = reopened()
    buf = decoded_leaf_frame(tree, 400)
    searches = buf.node.searches
    pinned = tree.file.pin(buf.page_no)
    try:
        tree.file.mark_dirty(pinned)      # someone else's version bump
    finally:
        tree.file.unpin(pinned)
    assert buf.node.version != buf.version
    assert tree.lookup(400) == tid_for(400)
    # the searches that paid for the first decode survive the bump, so
    # the next search decodes again at once
    assert buf.node.version == buf.version and buf.node.keys is not None
    assert buf.node.searches == searches


# ---------------------------------------------------------------------------
# every way a page's content changes leaves a node equal to a fresh decode
# ---------------------------------------------------------------------------

def touch_everything(tree, keys):
    for _ in range(2):                    # second pass decodes the lists
        for key in keys:
            tree.lookup(key)
    list(tree.range_scan())
    assert_all_nodes_match_bytes(tree)


@pytest.mark.parametrize("kind", ("normal", "shadow", "reorg", "hybrid"))
def test_split_and_remap_leave_current_nodes(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=5)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    keys = []
    for key in range(400):
        tree.insert(key, tid_for(key))
        keys.append(key)
        if key % 16 == 0:
            # decode whatever is resident, so the next split (and, on
            # the reorg trees, the remap) lands on frames carrying nodes
            touch_everything(tree, keys[-40:])
    assert tree.splits.value > 5
    touch_everything(tree, keys)
    assert len(tree.check()) == 400


@pytest.mark.parametrize("kind,action", [
    ("shadow", Action.REBUILT_FROM_PREV),
    ("reorg", Action.RESTORED_BACKUP),
])
def test_first_use_repairs_leave_current_nodes(kind, action):
    engine, tree, committed, _uncommitted, split = build_to_split(kind)
    if kind == "shadow":
        # the parent update survives, the new halves do not: both are
        # rebuilt from the prevPtr page on first use
        crash_keeping(engine, tree, "ix", [split["parent"], 0])
    else:
        # only the reorganized page survives: its backup restores the
        # original page
        crash_keeping(engine, tree, "ix", [split["pa"]])
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    assert all(buf.node is None
               for buf in tree2.file.pool._frames.values())
    touch_everything(tree2, sorted(committed))
    assert action in {r.action for r in tree2.repair_log}
    for key in sorted(committed):
        assert tree2.lookup(key) == tid_for(key)
    assert_all_nodes_match_bytes(tree2)


@pytest.mark.parametrize("kind", ("shadow", "reorg", "hybrid"))
def test_crash_reopen_starts_without_nodes_and_rebuilds_them(kind):
    engine, tree, committed, _uncommitted, _split = build_to_split(kind)
    touch_everything(tree, sorted(committed))
    with pytest.raises(CrashError):
        engine.sync(CrashOnNthSync(1, keep=0))
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES[kind].open(engine2, "ix")
    assert all(buf.node is None
               for buf in tree2.file.pool._frames.values())
    touch_everything(tree2, sorted(committed))
    assert [v for v, _ in tree2.range_scan()] == sorted(committed)


# ---------------------------------------------------------------------------
# decoded state is bounded by the pool (the directory it replaces was not)
# ---------------------------------------------------------------------------

def test_decoded_state_leaves_with_its_frame_and_the_root_stays():
    # enough keys for 200 leaves at an ascending load's 4/5 fill
    engine, tree = reopened(n=7000, pool_capacity=8)
    pool = tree.file.pool
    root_no = tree._root_page()
    seen: dict[int, weakref.ref] = {}
    key = 0
    while len(seen) < 200:
        page_no = decoded_leaf_frame(tree, key).page_no
        node = pool._frames[page_no].node
        assert node.keys is not None
        seen[page_no] = weakref.ref(node)
        del node
        key += 38
    assert len(pool._frames) <= 8
    gc.collect()
    alive = {p for p, ref in seen.items() if ref() is not None}
    assert alive <= set(pool._frames), \
        "a decoded list outlived the frame it was decoded from"
    assert len(alive) <= 8
    # the root is the hottest frame: it and its decoded lists survive
    # every one of those evictions
    root = pool._frames[root_no].node
    assert root.keys is not None and root.children is not None
    assert root.mismatch() is None


@pytest.mark.skipif(os.environ.get("REPRO_SANITIZE") == "1",
                    reason="the sanitizer's node check decodes on every "
                           "unpin")
def test_an_eighth_size_pool_decodes_few_pages_per_lookup():
    """``embedded_read_cold``'s shape, counted: a built tree (leaves of
    about 580 keys) under a pool of ``n_pages // 8`` frames.  A leaf is
    nearly always evicted long before 36 searches have paid for its
    decode, so lookups read the bytes; the old second-search rule decoded
    about one leaf in ten lookups here, each a whole page."""
    engine = StorageEngine.create(page_size=8192, seed=3)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="uint32")
    tree.insert_many((key, tid_for(key)) for key in range(40_000))
    tree.close_clean()
    engine.pool_capacity = tree.file.n_pages // 8
    engine.shutdown()
    cold = TREE_CLASSES["shadow"].open(StorageEngine.reopen(engine), "ix")
    rng = random.Random(5)
    keys = [rng.randrange(40_000) for _ in range(3000)]
    with recorded_decodes() as decoded:
        for key in keys:
            assert cold.lookup(key) == tid_for(key)
    # the root pays for itself after a handful of lookups and stays
    assert len(decoded) / len(keys) <= 0.02
