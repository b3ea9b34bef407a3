"""Property tests: the bulk decode against the per-item decode.

For *any* page bytes — random, zeroed, a torn line table, ``n_keys`` past
``lower``, duplicate adjacent offsets — the bulk decode either equals the
per-item :class:`NodeView` decode or reports "undecodable"; it never
raises and never returns a short list.  And a child whose durable image
is such garbage reaches the same first-use repairs, with the same
outcome, as when every reader decodes item by item.
"""
# lint: disable=R003,R012 — the strategies damage standalone bytearrays
# and plant durable images behind the pool's back on purpose

import struct
from contextlib import nullcontext

from hypothesis import given, settings, strategies as st

from repro import StorageEngine, TID, TREE_CLASSES
from repro.analysis.sanitizer import suspended
from repro.constants import PAGE_INTERNAL, PAGE_LEAF
from repro.errors import ReproError
from repro.core import items as I
from repro.core.nodeview import DecodedNode, NodeView, search_bytes
from repro.fastpath import FastPath
from repro.storage import page as P

from ..conftest import tid_for
from .helpers import bytes_only

PAGE = 256
PER_ITEM_ERRORS = (struct.error, IndexError)


def built_page(leaf: bool, keys: list[bytes]) -> bytearray:
    view = NodeView(bytearray(PAGE), PAGE)
    view.init_page(PAGE_LEAF if leaf else PAGE_INTERNAL,
                   level=0 if leaf else 1, sync_token=3,
                   shadow_items=not leaf)
    blobs = [I.pack_leaf_item(key, TID(7, i)) if leaf
             else I.pack_internal_item(key, 100 + i, prev=i)
             for i, key in enumerate(sorted(set(keys)))]
    fitting, used = [], P.HEADER_SIZE
    for blob in blobs:
        used += len(blob) + P.LINE_ENTRY_SIZE
        if used > PAGE:
            break
        fitting.append(blob)
    view.replace_items(fitting)
    return view.buf


@st.composite
def damaged_pages(draw) -> bytearray:
    """A page image: sound, damaged in one of the ways a crash or a
    recycled slot can damage it, or plain noise."""
    shape = draw(st.sampled_from(
        ["sound", "random", "zeroed", "torn_table", "n_keys_past_lower",
         "duplicate_offsets", "noise_over_sound"]))
    if shape == "random":
        return bytearray(draw(st.binary(min_size=PAGE, max_size=PAGE)))
    if shape == "zeroed":
        return bytearray(PAGE)
    data = built_page(draw(st.booleans()),
                      draw(st.lists(st.binary(max_size=6), max_size=14)))
    view = NodeView(data, PAGE)
    n = view.n_keys
    if shape == "torn_table":
        for _ in range(draw(st.integers(1, 4))):
            P.set_line(data, draw(st.integers(0, max(n, 1) + 2)),
                       draw(st.integers(0, 0xFFFF)))
    elif shape == "n_keys_past_lower":
        view.n_keys = draw(st.integers(n, PAGE))
    elif shape == "duplicate_offsets" and n >= 2:
        slot = draw(st.integers(1, n - 1))
        P.set_line(data, slot, P.get_line(data, slot - 1))
    elif shape == "noise_over_sound":
        for _ in range(draw(st.integers(1, 8))):
            data[draw(st.integers(0, PAGE - 1))] = draw(st.integers(0, 255))
    return data


def per_item(view: NodeView, accessor: str):
    """The reference decode of every slot, or the exception class the
    per-item decode stops with."""
    try:
        read = getattr(view, accessor)
        return [read(i) for i in range(view.n_keys)]
    except PER_ITEM_ERRORS as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(data=damaged_pages())
def test_bulk_decode_equals_per_item_or_reports_undecodable(data):
    view = NodeView(data, PAGE)
    node = DecodedNode(data, 1)
    keys = node.materialise()              # must not raise, whatever it is
    if keys is None:
        assert node.keys is None and node.children is None
    else:
        assert len(keys) == node.n_keys == view.n_keys
        assert keys == per_item(view, "key_at")
        if not node.is_leaf:
            assert len(node.children) == node.n_keys
            assert node.children == per_item(view, "child_at")
        # decoded searches agree with the byte-level search
        stats = FastPath(kind="t", file_name="t")
        node.for_writer()
        for key in keys[:4] + [b"", b"\x00\x01", b"\xff" * 7]:
            try:
                expected = search_bytes(data, node.n_keys, key)
            except PER_ITEM_ERRORS:
                continue
            if keys == sorted(keys):
                assert node.search(key, stats) == expected
    # the whole-page readers: the per-item answer or the per-item error
    for reader, accessor in ((node.all_keys, "key_at"),
                             (node.all_tids, "tid_at"),
                             (node.all_children, "child_at")):
        expected = per_item(view, accessor)
        try:
            got = reader()
        except PER_ITEM_ERRORS as exc:
            assert expected is type(exc)
        else:
            assert got == expected and len(got) == view.n_keys


# ---------------------------------------------------------------------------
# an undecodable child still reaches the first-use repairs
# ---------------------------------------------------------------------------

COMMITTED = range(0, 96)
_BASE: dict[str, tuple] = {}     # kind -> (engine, index disk, leaf)


def base_engine(kind: str):
    """One committed tree per kind, reused across examples: lookups never
    sync, so the durable state only changes where an example plants an
    image (and it puts the original back)."""
    if kind not in _BASE:
        engine = StorageEngine.create(page_size=PAGE, seed=17)
        tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
        for key in COMMITTED:
            tree.insert(key, tid_for(key))
            if key % 24 == 23:
                engine.sync()
        engine.sync()
        path = tree._descend((40).to_bytes(4, "big"))
        leaf_no = path[-1].page_no
        tree._unpin_path(path)
        engine.dead = True
        _BASE[kind] = (engine, tree.file.disk, leaf_no)
    return _BASE[kind]


def recover_and_read(kind: str, engine) -> tuple:
    engine2 = StorageEngine.reopen_after_crash(engine)
    tree = TREE_CLASSES[kind].open(engine2, "ix")
    answers = []
    for key in COMMITTED:
        try:
            answers.append(tree.lookup(key))
        except (ReproError, *PER_ITEM_ERRORS) as exc:
            answers.append(type(exc))           # compared across readers
    repairs = [(r.kind, r.page_no, r.action) for r in tree.repair_log]
    return answers, repairs


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["shadow", "reorg", "hybrid"]),
       image=damaged_pages(), keep_header=st.booleans())
def test_garbage_child_reaches_the_same_repairs_as_the_byte_path(
        kind, image, keep_header):
    engine, disk, leaf_no = base_engine(kind)
    original = disk.read_page(leaf_no)
    if keep_header:
        # a plausible header over a damaged body: the detectors must get
        # past the magic check and look at the keys
        image[:8] = original[:8]
    with suspended():           # the disk vets what overwrites a backup
        disk.write_page(leaf_no, bytes(image))
    try:
        outcomes = []
        for reader in (nullcontext, bytes_only):
            with reader():
                outcomes.append(recover_and_read(kind, engine))
        assert outcomes[0] == outcomes[1]
    finally:
        with suspended():
            disk.write_page(leaf_no, original)
