"""The leaf writer against its references, byte for byte.

``NodeView.insert_item`` / ``delete_item`` have two forms: the stepped
protocol of Section 3.3 (what a ``step_hook`` selects) and the writer the
tree uses — header fields taken from the frame's node, one slice move, one
``pack_into`` per field it changes.  ``insert_run`` / ``delete_run`` write
a sorted run at once, ``items()`` / ``replace_items`` move a split's
halves in bulk.  Each must leave exactly the bytes of its reference: the
stepped protocol for the single writer, the single writer for a run, and
the per-item forms (kept below) for the split.  ``update`` is the third
leaf writer: it must leave an ``insert``'s bytes for an absent key and
move only the six TID bytes of a present one.
"""

# page-layer differentials work on raw NodeViews over bytearrays: there is
# no buffer pool to dirty and no SyncState to consult, and the one test
# that keeps a frame's node current bumps the frame's version by hand
# lint: disable=R004,R012,R015

import random
import struct
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import TREE_CLASSES, DuplicateKeyError, KeyNotFoundError, \
    StorageEngine, TID
from repro.constants import PAGE_INTERNAL, PAGE_LEAF
from repro.core import items as I
from repro.core.nodeview import DecodedNode, NodeView, node_of
from repro.errors import PageError, PageFullError
from repro.storage import page as P
from repro.storage.buffer_pool import Buffer

from ..fastpath.helpers import all_page_bytes, leaf_page_of

ALL_KINDS = ("normal", "shadow", "reorg", "hybrid")


def no_hook(_label):
    """The step hook of the reference leg: sees every step, does nothing."""


@contextmanager
def stepped():
    """Route every single-item write of the block through the stepped
    protocol, whoever calls it (the tree included)."""
    insert, delete = NodeView.insert_item, NodeView.delete_item

    def insert_item(view, index, item, step_hook=None, node=None):
        insert(view, index, item, step_hook or no_hook, node)

    def delete_item(view, index, step_hook=None, node=None):
        delete(view, index, step_hook or no_hook, node)
    with mock.patch.object(NodeView, "insert_item", insert_item), \
            mock.patch.object(NodeView, "delete_item", delete_item):
        yield


# ---------------------------------------------------------------------------
# (a) the tree's writer == the stepped protocol, after every operation
# ---------------------------------------------------------------------------

def random_key(rng, codec):
    if codec == "uint32":
        return rng.randrange(4000)
    return rng.randbytes(rng.randrange(1, 20))


def attempt(op, key, tid=None):
    try:
        op(key) if tid is None else op(key, tid)
    except (DuplicateKeyError, KeyNotFoundError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("codec", ["uint32", "bytes"])
@pytest.mark.parametrize("page_size", [256, 512, 8192])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_trees_writer_leaves_the_stepped_protocols_bytes(kind, page_size,
                                                             codec):
    """A seeded insert/delete stream, once through the writer and once
    through the stepped protocol: every page of the two files is equal
    after every operation, splits, reclaims and rejections included."""
    trees = []
    for _ in range(2):
        engine = StorageEngine.create(page_size=page_size, seed=17)
        trees.append((engine, TREE_CLASSES[kind].create(engine, "ix",
                                                        codec=codec)))
    (engine_w, written), (engine_s, reference) = trees
    rng = random.Random(f"{kind}-{page_size}-{codec}")
    live = []
    n_ops = 2600 if page_size == 8192 else 400      # a split at either
    for n in range(n_ops):
        roll = rng.random()
        if roll < 0.62 or not live:
            key = random_key(rng, codec)
            tid = TID(1 + n // 200, n % 200)
            outcome = attempt(written.insert, key, tid)
            with stepped():
                assert attempt(reference.insert, key, tid) == outcome
            if outcome is None:
                live.append(key)
        elif roll < 0.70:
            key = random_key(rng, codec)        # most likely absent
            outcome = attempt(written.delete, key)
            with stepped():
                assert attempt(reference.delete, key) == outcome
            if outcome is None:
                live.remove(key)
        else:
            key = live.pop(rng.randrange(len(live)))
            written.delete(key)
            with stepped():
                reference.delete(key)
        assert all_page_bytes(written) == all_page_bytes(reference), n
        if n % 37 == 36:
            engine_w.sync()
            engine_s.sync()
    assert written.splits.value == reference.splits.value > 0
    assert written.check() == reference.check()


# ---------------------------------------------------------------------------
# (a) one page: with and without a node, and every refusal
# ---------------------------------------------------------------------------

PAGE = 512


def k(i):
    return i.to_bytes(4, "big")


def leaf_item(i):
    return I.pack_leaf_item(k(i), TID(1, i % 250))


def fresh_leaf(page_size=PAGE):
    view = NodeView(bytearray(page_size), page_size)
    view.init_page(PAGE_LEAF, level=0, sync_token=5)
    return view


def three_of(view):
    """Three writers over copies of one page: fed by a node, bare, and the
    stepped reference."""
    fed = NodeView(bytearray(view.buf), view.page_size)
    bare = NodeView(bytearray(view.buf), view.page_size)
    ref = NodeView(bytearray(view.buf), view.page_size)
    return fed, DecodedNode(fed.buf, 0), bare, ref


def assert_node_current(node):
    assert node.mismatch() is None, node.mismatch()


def test_single_writes_match_the_stepped_protocol_on_one_page():
    rng = random.Random(8)
    fed, node, bare, ref = three_of(fresh_leaf())
    present = []
    for n in range(1500):
        if present and (rng.random() < 0.45 or not ref.can_fit(14)):
            slot = rng.randrange(len(present))
            del present[slot]
            fed.delete_item(slot, node=node)
            bare.delete_item(slot)
            ref.delete_item(slot, no_hook)
        else:
            key = rng.randrange(10_000)
            slot, found = ref.search(k(key))
            if found:
                continue
            present.insert(slot, key)
            fed.insert_item(slot, leaf_item(key), node=node)
            bare.insert_item(slot, leaf_item(key))
            ref.insert_item(slot, leaf_item(key), no_hook)
        assert fed.buf == ref.buf and bare.buf == ref.buf, n
        assert_node_current(node)
    assert [int.from_bytes(key, "big") for key in ref.keys()] == present


def fragmented_full_leaf():
    """A leaf filled to the brim whose first items were then deleted: the
    contiguous free space holds no item, the dead bytes would."""
    view = fresh_leaf()
    i = 0
    while view.can_fit(len(leaf_item(i))):
        view.insert_item(i, leaf_item(i))
        i += 1
    for _ in range(3):
        view.delete_item(0)
    return view, i


def test_compaction_then_fit_is_the_same_compaction():
    view, n = fragmented_full_leaf()
    item = leaf_item(9_000)
    assert not view.can_fit(len(item))
    fed, node, bare, ref = three_of(view)
    fed.insert_item(fed.n_keys, item, node=node)
    bare.insert_item(bare.n_keys, item)
    ref.insert_item(ref.n_keys, item, no_hook)
    assert fed.buf == ref.buf and bare.buf == ref.buf
    assert ref.n_keys == n - 3 + 1 and ref.upper > view.upper
    assert_node_current(node)


def refused(call):
    with pytest.raises((PageError, PageFullError)) as err:
        call()
    return type(err.value), str(err.value)


def test_refusals_are_the_same_refusals_and_write_nothing():
    full = fresh_leaf()
    i = 0
    while full.can_fit(len(leaf_item(i))):
        full.insert_item(i, leaf_item(i))
        i += 1
    backed = fresh_leaf()
    backed.replace_items([leaf_item(i) for i in range(5)])
    backed.write_backup([leaf_item(i) for i in range(5, 10)], prev_total=10,
                        live_is_low=True, old_left_peer=3, old_left_token=30,
                        old_right_peer=4, old_right_token=40)
    cases = [
        # page full, even after the compaction attempt
        (full, lambda v, **kw: v.insert_item(0, leaf_item(7_000), **kw),
         PageFullError),
        # backup keys present (a reorganized page awaiting its sync)
        (backed, lambda v, **kw: v.insert_item(0, leaf_item(7_000), **kw),
         PageError),
        (backed, lambda v, **kw: v.delete_item(0, **kw), PageError),
        # index out of range — refused ahead of the backup keys, as ever
        (backed, lambda v, **kw: v.insert_item(6, leaf_item(7_000), **kw),
         PageError),
        (full, lambda v, **kw: v.insert_item(-1, leaf_item(7_000), **kw),
         PageError),
        (full, lambda v, **kw: v.delete_item(full.n_keys, **kw), PageError),
    ]
    for view, call, kind in cases:
        before = bytes(view.buf)
        fed, node, bare, ref = three_of(view)
        expected = refused(lambda: call(ref, step_hook=no_hook))
        assert expected[0] is kind
        assert refused(lambda: call(bare)) == expected
        assert refused(lambda: call(fed, node=node)) == expected
        assert fed.buf == bare.buf == ref.buf == before
        assert_node_current(node)
    # which refusal wins is part of the contract
    assert "out of range" in refused(
        lambda: backed.insert_item(6, leaf_item(1)))[1]
    assert "backup keys" in refused(
        lambda: backed.insert_item(5, leaf_item(1)))[1]


# ---------------------------------------------------------------------------
# a run == its keys written singly (stale line-table bytes included)
# ---------------------------------------------------------------------------

def test_runs_leave_the_bytes_singles_leave_on_one_page():
    rng = random.Random(21)
    buf = Buffer(3, fresh_leaf(1024).buf)
    run_page = NodeView(buf.data, 1024)
    run_node = node_of(buf)
    run_node.materialise()
    singles = NodeView(bytearray(run_page.buf), 1024)
    present = []
    for n in range(300):
        size = rng.choice((1, 2, 3, 9))
        if present and (rng.random() < 0.5 or len(present) > 55):
            slots = sorted(rng.sample(range(len(present)),
                                      min(size, len(present))))
            run_page.delete_run(slots, run_node)
            buf.version += 1                    # what mark_dirty would do
            run_node.note_delete_run(buf, slots)
            for done, slot in enumerate(slots):
                singles.delete_item(slot - done)
                del present[slot - done]
        else:
            keys = sorted(set(rng.sample(range(100_000), size))
                          - set(present))
            slots = [singles.search(k(key))[0] for key in keys]
            if singles.free_space() < len(keys) * (len(leaf_item(0)) + 2):
                # a run is only ever handed what fits without compaction
                singles.compact()
                run_page.compact()
                buf.version += 1
                run_node = node_of(buf)
                run_node.materialise()
            run_page.insert_run(slots, [leaf_item(key) for key in keys],
                                run_node)
            buf.version += 1
            run_node.note_insert_run(buf, slots, [k(key) for key in keys])
            for done, (slot, key) in enumerate(zip(slots, keys)):
                singles.insert_item(slot + done, leaf_item(key))
                present.insert(slot + done, key)
        assert run_page.buf == singles.buf, n
        assert node_of(buf) is run_node
        assert_node_current(run_node)
        assert run_node.keys == [k(key) for key in present]


def test_run_refusals():
    view = fresh_leaf()
    view.replace_items([leaf_item(i) for i in range(0, 20, 2)])
    node = DecodedNode(view.buf, 0)
    before = bytes(view.buf)
    two = [leaf_item(1), leaf_item(3)]
    for slots in ([3, 1], [0, 11], [-1, 0]):
        with pytest.raises(PageError, match="not ascending in"):
            view.insert_run(slots, two, node)
    for slots in ([3, 3], [4, 2], [0, 10]):
        with pytest.raises(PageError, match="not ascending in"):
            view.delete_run(slots, node)
    with pytest.raises(PageFullError, match="run of 2 items"):
        view.insert_run([0, 0], [I.pack_leaf_item(bytes(200), TID(1, 1)),
                                 I.pack_leaf_item(bytes(201), TID(1, 2))],
                        node)
    assert view.buf == before
    assert_node_current(node)


# ---------------------------------------------------------------------------
# (c) the split's bulk forms == the per-item forms
# ---------------------------------------------------------------------------

def reference_items(view):
    """``NodeView.items()`` as it was: one ``item_bytes_at`` per entry."""
    return [view.item_bytes_at(i) for i in range(view.n_keys)]


def reference_replace_items(view, item_blobs):
    """``NodeView.replace_items`` as it was: one slice store and one
    ``set_line`` per item."""
    header = P.read_header(view.buf)
    body_start = P.line_offset(len(item_blobs))
    upper = view.page_size
    view.buf[P.HEADER_SIZE:] = bytes(view.page_size - P.HEADER_SIZE)
    offsets = []
    for blob in item_blobs:
        upper -= len(blob)
        if upper < body_start:
            raise PageFullError("replace_items: items overflow the page")
        view.buf[upper: upper + len(blob)] = blob
        offsets.append(upper)
    for i, off in enumerate(offsets):
        P.set_line(view.buf, i, off)
    header.n_keys = len(item_blobs)
    header.prev_n_keys = 0
    header.backup_count = 0
    header.lower = body_start
    header.upper = upper
    P.write_header(view.buf, header)


def page_of(shape, rng, page_size=PAGE):
    view = NodeView(bytearray(page_size), page_size)
    keys = sorted({rng.randbytes(rng.randrange(1, 12)) for _ in range(18)})
    if shape == "leaf":
        view.init_page(PAGE_LEAF, level=0, sync_token=3)
        blobs = [I.pack_leaf_item(key, TID(2, i))
                 for i, key in enumerate(keys)]
    else:
        shadow = shape == "shadow-internal"
        view.init_page(PAGE_INTERNAL, level=1, sync_token=3,
                       shadow_items=shadow)
        blobs = [I.pack_internal_item(key, 10 + i,
                                      prev=90 + i if shadow else None)
                 for i, key in enumerate([b""] + keys)]
    return view, blobs


@pytest.mark.parametrize("shape", ["leaf", "normal-internal",
                                   "shadow-internal"])
def test_items_and_replace_items_match_the_per_item_forms(shape):
    rng = random.Random(shape)
    for _ in range(25):
        bulk, blobs = page_of(shape, rng)
        ref = NodeView(bytearray(bulk.buf), PAGE)
        bulk.left_peer, bulk.right_peer_token = 7, 99      # identity fields
        ref.left_peer, ref.right_peer_token = 7, 99
        bulk.replace_items(blobs)
        reference_replace_items(ref, blobs)
        assert bulk.buf == ref.buf
        assert bulk.items() == reference_items(ref) == blobs
        # a page with dead bytes and a shifted table reads back the same
        for slot in sorted(rng.sample(range(len(blobs)), 5), reverse=True):
            bulk.delete_item(slot)
            del blobs[slot]
        assert bulk.items() == reference_items(bulk) == blobs
        half = len(blobs) // 2
        bulk.replace_items(blobs[half:])
        reference_replace_items(ref, blobs[half:])
        assert bulk.buf == ref.buf
    empty, _ = page_of(shape, rng)
    empty.replace_items([])
    assert empty.items() == [] and empty.upper == PAGE


def test_replace_items_overflow_is_refused_as_before():
    bulk, blobs = page_of("leaf", random.Random(1))
    ref = NodeView(bytearray(bulk.buf), PAGE)
    too_many = blobs * 6
    for view, replace in ((bulk, bulk.replace_items),
                          (ref, lambda b: reference_replace_items(ref, b))):
        with pytest.raises(PageFullError, match="items overflow the page"):
            replace(too_many)
        # refused with the old content already cleared, header untouched
        assert view.n_keys == 0 and view.upper == PAGE


@pytest.mark.parametrize("damage", ["offset-at-last-byte", "offset-past-page",
                                    "table-runs-off-page", "item-truncated"])
def test_items_on_an_undecodable_page_falls_back_to_the_per_item_read(damage):
    view, blobs = page_of("leaf", random.Random(damage))
    view.replace_items(blobs)
    if damage == "offset-at-last-byte":
        P.set_line(view.buf, 4, PAGE - 1)
    elif damage == "offset-past-page":
        P.set_line(view.buf, 4, PAGE + 40)
    elif damage == "table-runs-off-page":
        view.n_keys = 60_000
    else:
        # the length prefix claims more bytes than the page has left: both
        # forms hand back the truncated slice, as slicing always did
        off = P.get_line(view.buf, 0)
        struct.pack_into("<H", view.buf, off, 5_000)
    try:
        expected = reference_items(view)
    except struct.error as exc:
        with pytest.raises(struct.error) as err:
            view.items()
        assert str(err.value) == str(exc)
    else:
        assert view.items() == expected


# ---------------------------------------------------------------------------
# (d) update: six TID bytes in place, or exactly an insert
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("codec", ["uint32", "bytes"])
@pytest.mark.parametrize("page_size", [256, 512, 8192])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_update_rewrites_six_tid_bytes_or_leaves_an_inserts_bytes(
        kind, page_size, codec):
    """Two trees built alike.  An update of an absent key leaves every
    page as ``insert`` of it leaves the twin, splits included.  An update
    of a present key changes exactly its item's six TID bytes: the
    header, the line table, the key bytes, every other item and every
    other page stay as they were."""
    trees = []
    for _ in range(2):
        engine = StorageEngine.create(page_size=page_size, seed=17)
        trees.append((engine, TREE_CLASSES[kind].create(engine, "ix",
                                                        codec=codec)))
    (engine_u, updated), (engine_i, inserted) = trees
    rng = random.Random(f"update-{kind}-{page_size}-{codec}")
    live = {}
    n_ops = 2600 if page_size == 8192 else 400      # a split at either
    for n in range(n_ops):
        key = random_key(rng, codec)
        if key in live:
            continue
        live[key] = TID(1 + n // 200, n % 200)
        assert updated.update(key, live[key]) is False
        inserted.insert(key, live[key])
        assert all_page_bytes(updated) == all_page_bytes(inserted), n
        if n % 37 == 36:
            engine_u.sync()
            engine_i.sync()
    assert updated.splits.value == inserted.splits.value > 0
    engine_u.sync()
    for n, key in enumerate(rng.sample(sorted(live), 40)):
        # settle the leaf first: rewriting the TID it holds resolves any
        # backup keys a reorganised leaf still carries, and moves no byte
        # of a leaf that has none
        assert updated.update(key, live[key]) is True
        before = all_page_bytes(updated)
        live[key] = TID(0xA0B0C0 + n, 0xD0E + n)
        assert updated.update(key, live[key]) is True
        after = all_page_bytes(updated)
        page_no = leaf_page_of(updated, key)
        view = NodeView(bytearray(before[page_no]), page_size)
        slot, found = view.search(updated.codec.encode(key))
        assert found
        at = view.item_off(slot) + 2 + len(view.key_at(slot))
        assert after[page_no][at:at + 6] == struct.pack(
            "<IH", live[key].page_no, live[key].line)
        assert after[page_no][:at] == before[page_no][:at]
        assert after[page_no][at + 6:] == before[page_no][at + 6:]
        assert [page for i, page in enumerate(after) if i != page_no] \
            == [page for i, page in enumerate(before) if i != page_no]
    assert updated.check() == sorted(
        (updated.codec.encode(key), tid) for key, tid in live.items())
