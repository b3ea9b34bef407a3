"""The decoded node: version stamping, incremental maintenance, bulk
decode, and equivalence with the byte-path search."""
# lint: disable=R012 — these unit tests build NodeViews over standalone
# bytearrays (no pool frame, no sync), so there is nothing to mark dirty;
# version bumps are applied by hand where a test needs them.

import random

import pytest

from repro import StorageEngine, TREE_CLASSES, TID
from repro.constants import PAGE_INTERNAL, PAGE_LEAF, PAGE_MAGIC
from repro.core import items as I
from repro.core.nodeview import DecodedNode, NodeView, node_of
from repro.fastpath import FastPath
from repro.storage.buffer_pool import Buffer

from ..conftest import SMALL_PAGE, fill_tree, tid_for
from .helpers import assert_all_nodes_match_bytes, bytes_only, fresh_node

PAGE = SMALL_PAGE


def make_leaf_buffer(keys, page_size=PAGE):
    data = bytearray(page_size)
    view = NodeView(data, page_size)
    view.init_page(PAGE_LEAF, level=0, sync_token=1, shadow_items=False)
    for slot, key in enumerate(sorted(keys)):
        view.insert_item(slot, I.pack_leaf_item(key, TID(1, slot)))
    return Buffer(3, data), view


def make_internal_buffer(entries, page_size=PAGE):
    data = bytearray(page_size)
    view = NodeView(data, page_size)
    view.init_page(PAGE_INTERNAL, level=1, sync_token=1, shadow_items=True)
    view.replace_items([I.pack_internal_item(key, child, prev=0)
                        for key, child in entries])
    return Buffer(4, data), view


def stats():
    return FastPath(kind="test", file_name="t")


def test_node_is_reused_while_the_version_stands():
    buf, _ = make_leaf_buffer([b"a", b"b", b"c"])
    node = node_of(buf)
    assert node_of(buf) is node and buf.node is node
    assert node.materialise() == [b"a", b"b", b"c"]
    assert node_of(buf).keys is node.keys     # no re-decode
    # any version bump re-reads the header and drops the lists
    buf.version += 1
    again = node_of(buf)
    assert again is node and again.version == buf.version
    assert again.keys is None


def test_header_comes_from_one_unpack_and_matches_the_view():
    buf, view = make_leaf_buffer([b"a", b"b"])
    view.right_peer, view.right_peer_token = 9, 77
    node = node_of(buf)
    for name in DecodedNode.HEADER_FIELDS[1:]:      # all but the magic
        assert getattr(node, name) == getattr(view, name), name
    assert node.is_leaf and node.magic == PAGE_MAGIC


def test_note_insert_restamps_to_current_version():
    buf, view = make_leaf_buffer([b"a", b"c"])
    node = node_of(buf)
    keys = node.materialise()
    view.insert_item(1, I.pack_leaf_item(b"b", TID(1, 9)), node=node)
    buf.version += 7          # what mark_dirty would do
    node.note_insert(buf, 1, b"b")
    assert node_of(buf) is node and node.keys is keys
    assert keys == [b"a", b"b", b"c"] and node.n_keys == 3
    assert node.mismatch() is None


def test_note_delete_restamps_to_current_version():
    buf, view = make_leaf_buffer([b"a", b"b", b"c"])
    node = node_of(buf)
    node.materialise()
    view.delete_item(0, node=node)
    buf.version += 1
    node.note_delete(buf, 0)
    assert node.keys == [b"b", b"c"] and node.n_keys == 2
    assert node.mismatch() is None


def test_note_on_an_undecoded_node_only_takes_the_version():
    buf, view = make_leaf_buffer([b"a"])
    node = node_of(buf)
    view.insert_item(1, I.pack_leaf_item(b"b", TID(1, 9)), node=node)
    buf.version += 1
    node.note_insert(buf, 1, b"b")
    assert node.keys is None and node.n_keys == 2


def test_mismatch_names_what_went_stale():
    buf, view = make_leaf_buffer([b"a", b"b"])
    node = node_of(buf)
    node.materialise()
    view.left_peer = 5                      # header setter, no bump
    assert "left_peer" in node.mismatch()
    node.refresh(buf.version)
    node.materialise()
    node.keys[0] = b"zz"                    # a wrong incremental update
    assert "key list" in node.mismatch()


def test_internal_page_decodes_children_with_the_keys():
    entries = [(b"", 11), (b"g", 12), (b"p", 13)]
    buf, view = make_internal_buffer(entries)
    node = node_of(buf)
    assert node.materialise() == [b"", b"g", b"p"]
    assert node.children == [11, 12, 13]
    s = stats()
    for key, slot in ((b"a", 0), (b"g", 1), (b"h", 1), (b"zz", 2)):
        assert node.route(key, s) == view.route(key) == slot
        assert node.child_at(slot) == view.child_at(slot)


def test_garbage_is_undecodable_not_an_error():
    data = bytearray(bytes([0xFF]) * PAGE)
    node = DecodedNode(data, 1)
    assert node.materialise() is None and node.keys is None


@pytest.mark.parametrize("page_size", [256, 512, 600, 4096])
def test_keys_decodable_is_whether_the_bulk_decode_succeeds(page_size):
    """Every line-table entry from 200 below the last readable offset to
    past the page end, and a line table longer than the page."""
    from repro.storage import page as P

    buf, view = make_leaf_buffer([b"k%02d" % i for i in range(6)],
                                 page_size)
    data = buf.data
    assert DecodedNode(data, 1).keys_decodable()
    for slot in (0, 3, 5):
        for offset in range(page_size - 200, page_size + 300):
            damaged = bytearray(data)
            P.set_line(damaged, slot, offset)
            node = DecodedNode(damaged, 1)
            assert node.keys_decodable() == (node.materialise() is not None)
    view.n_keys = page_size
    node = DecodedNode(data, 1)
    assert not node.keys_decodable() and node.materialise() is None


def test_zeroed_page_decodes_to_nothing():
    node = node_of(Buffer(5, bytearray(PAGE)))
    assert node.materialise() == [] and node.magic != PAGE_MAGIC


def test_mark_dirty_and_remap_and_reopen_bump_versions(engine):
    file = engine.create_file("f")
    page = file.allocate()
    buf = file.pin(page)
    try:
        v0 = buf.version
        file.mark_dirty(buf)
        assert buf.version > v0
    finally:
        file.unpin(buf)
    engine.sync()
    # a dropped frame re-faults as a new Buffer with a new version and
    # no node
    file.pool.drop(page)
    buf2 = file.pin(page)
    try:
        assert buf2.version > v0 and buf2.node is None
    finally:
        file.unpin(buf2)


@pytest.mark.parametrize("kind", ("normal", "shadow", "reorg", "hybrid"))
def test_node_search_equivalent_to_byte_search(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=42)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    fill_tree(tree, range(500))
    with bytes_only():
        engine2 = StorageEngine.create(page_size=PAGE, seed=42)
        tree2 = TREE_CLASSES[kind].create(engine2, "ix", codec="uint32")
        fill_tree(tree2, range(500))
        reference = [tree2.lookup(probe) for probe in range(520)]
        checked = tree2.check()
        assert tree2.fastpath.cache_hits == 0
    assert [tree.lookup(probe) for probe in range(520)] == reference
    assert tree.check() == checked
    assert tree.fastpath.cache_hits > 0
    assert_all_nodes_match_bytes(tree)
    # page by page: the decoded search agrees with the byte search
    s = stats()
    for buf in list(tree.file.pool._frames.values())[1:]:
        view = NodeView(buf.data, PAGE)
        node = fresh_node(buf)
        for probe in range(0, 520, 7):
            key = probe.to_bytes(4, "big")
            assert node.search(key, s) == view.search(key)


@pytest.mark.parametrize("kind", ("normal", "shadow", "reorg", "hybrid"))
def test_mixed_ops_match_the_byte_path(kind):
    """Oracle test: the same randomized op sequence served from decoded
    nodes and served from the page bytes must leave identical indexes."""
    rng = random.Random(99)
    ops = []
    live = set()
    universe = list(range(2000))
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.55 or not live:
            key = rng.choice(universe)
            if key not in live:
                live.add(key)
                ops.append(("insert", key))
        elif roll < 0.8:
            key = rng.choice(sorted(live))
            live.discard(key)
            ops.append(("delete", key))
        else:
            ops.append(("lookup", rng.choice(universe)))

    def apply():
        engine = StorageEngine.create(page_size=PAGE, seed=7)
        tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
        out = []
        for i, (op, key) in enumerate(ops):
            if op == "insert":
                tree.insert(key, tid_for(key))
            elif op == "delete":
                tree.delete(key)
            else:
                out.append(tree.lookup(key))
            if i % 97 == 0:
                engine.sync()
        engine.sync()
        assert_all_nodes_match_bytes(tree)
        return out, tree.check(), sorted(k for k, _ in tree.items())

    decoded = apply()
    with bytes_only():
        from_bytes = apply()
    assert decoded == from_bytes


@pytest.mark.parametrize("kind", ("shadow", "reorg"))
def test_search_counters_exported_via_registry(kind):
    from repro.obs import get_registry
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ixq", codec="uint32")
    fill_tree(tree, range(200))
    for i in range(200):
        tree.lookup(i)
    snap = get_registry().snapshot()
    hits = [v for k, v in snap["counters"].items()
            if k.startswith("fastpath.page_cache.hits") and "ixq" in k]
    assert hits and hits[0] == tree.fastpath.cache_hits > 0
