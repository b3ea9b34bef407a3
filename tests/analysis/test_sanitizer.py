"""The runtime sanitizer catches deliberately injected protocol violations.

Each test builds a healthy engine under ``sanitized()`` and then breaks one
rule on purpose: the sanitizer must name the violation, and the matching
conforming sequence must pass untouched.
"""

# these tests inject R011/R002/R012 violations on purpose — the runtime
# sanitizer, not the linter, is the checker being proven here
# lint: disable=R002,R011,R012

import gc
import random
import sys

import pytest

from repro import TREE_CLASSES, StorageEngine, TID
from repro.analysis.sanitizer import SanitizerError, sanitized, suspended
from repro.constants import PAGE_LEAF
from repro.core.meta import MetaView
from repro.core.nodeview import NodeView

from ..fastpath.helpers import leaf_page_of

PAGE = 512


def make_tree(kind="shadow", name="ix", seed=7):
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, name, codec="uint32")
    for i in range(50):
        tree.insert(i, TID(1, i))
    engine.sync()
    return engine, tree


# ---------------------------------------------------------------------------
# mutated-but-clean frames (runtime R012)
# ---------------------------------------------------------------------------

def test_mutation_without_mark_dirty_fails_the_next_sync():
    with sanitized():
        engine, tree = make_tree()
        buf = tree.file.pin_meta()
        buf.data[100] ^= 0xFF  # mutate, "forget" mark_dirty
        tree.file.unpin(buf)
        with pytest.raises(SanitizerError, match="never marked dirty"):
            engine.sync()


def test_marked_dirty_mutation_is_fine():
    with sanitized():
        engine, tree = make_tree()
        buf = tree.file.pin_meta()
        buf.data[100] ^= 0xFF
        tree.file.mark_dirty(buf)
        tree.file.unpin(buf)
        engine.sync()


def test_note_volatile_exempts_the_deliberate_divergence():
    with sanitized():
        engine, tree = make_tree()
        buf = tree.file.pin_meta()
        buf.data[100] ^= 0xFF
        tree.file.pool.note_volatile(buf)
        tree.file.unpin(buf)
        engine.sync()  # exempted: the divergence is declared
        # marking the frame dirty retires the declaration and the next
        # sync writes the bytes out, converging buffer and disk again
        buf = tree.file.pin_meta()
        tree.file.mark_dirty(buf)
        tree.file.unpin(buf)
        engine.sync()


def test_suspended_disables_the_checks():
    with sanitized():
        engine, tree = make_tree()
        buf = tree.file.pin_meta()
        buf.data[100] ^= 0xFF
        tree.file.unpin(buf)
        with suspended():
            engine.sync()


# ---------------------------------------------------------------------------
# pin balance (runtime R011)
# ---------------------------------------------------------------------------

def test_leaked_pin_is_caught_at_op_exit():
    with sanitized():
        engine, tree = make_tree()
        tree.file.unpin = lambda buf: None  # drop every release
        with pytest.raises(SanitizerError, match="pin leaked"):
            tree.lookup(3)


def test_balanced_ops_pass():
    with sanitized():
        engine, tree = make_tree()
        assert tree.lookup(3) == TID(1, 3)
        tree.insert(1000, TID(2, 1))
        tree.delete(1000)


# ---------------------------------------------------------------------------
# premature backup-space reclaim (Section 3.4)
# ---------------------------------------------------------------------------

def test_reclaim_of_never_synced_backup_is_caught():
    gc.collect()  # the check needs exactly one live engine
    with sanitized():
        engine, tree = make_tree(kind="reorg")
        state = engine.sync_state
        raw = bytearray(PAGE)
        view = NodeView(raw, PAGE)
        # a freshly split page: its token still equals the counter, so no
        # sync has committed the split — the backup keys are the only
        # durable copy and reclaiming them now is the paper's 3.4 bug
        view.init_page(PAGE_LEAF, sync_token=state.token())
        view.prev_n_keys = 3
        with pytest.raises(SanitizerError, match="never synced"):
            view.reclaim_backup()


def test_reclaim_after_a_sync_is_fine():
    gc.collect()
    with sanitized():
        engine, tree = make_tree(kind="reorg")
        state = engine.sync_state
        raw = bytearray(PAGE)
        view = NodeView(raw, PAGE)
        view.init_page(PAGE_LEAF, sync_token=state.token())
        view.prev_n_keys = 3
        state.note_split()
        engine.sync()  # advances the counter: the split token is durable
        view.reclaim_backup()
        assert view.prev_n_keys == 0


# ---------------------------------------------------------------------------
# durable backup-clear ordering (SanitizedDisk)
# ---------------------------------------------------------------------------

def _backup_page(state, *, prev_n_keys, new_page):
    raw = bytearray(PAGE)
    view = NodeView(raw, PAGE)
    view.init_page(PAGE_LEAF, sync_token=state.token())
    view.prev_n_keys = prev_n_keys
    view.new_page = new_page
    return raw


def test_disk_rejects_backup_clear_while_sibling_not_durable():
    gc.collect()
    with sanitized():
        engine, tree = make_tree(kind="reorg")
        disk = tree.file.disk
        state = engine.sync_state
        disk.write_page(5, bytes(_backup_page(state, prev_n_keys=3,
                                              new_page=7)))
        clear = bytearray(PAGE)
        NodeView(clear, PAGE).init_page(PAGE_LEAF, sync_token=state.token())
        with pytest.raises(SanitizerError, match="sibling 7 is not durable"):
            disk.write_page(5, bytes(clear))


def test_disk_accepts_backup_clear_once_sibling_is_durable():
    gc.collect()
    with sanitized():
        engine, tree = make_tree(kind="reorg")
        disk = tree.file.disk
        state = engine.sync_state
        disk.write_page(5, bytes(_backup_page(state, prev_n_keys=3,
                                              new_page=7)))
        sibling = bytearray(PAGE)
        NodeView(sibling, PAGE).init_page(PAGE_LEAF,
                                          sync_token=state.token())
        disk.write_page(7, bytes(sibling))
        clear = bytearray(PAGE)
        NodeView(clear, PAGE).init_page(PAGE_LEAF, sync_token=state.token())
        disk.write_page(5, bytes(clear))  # sibling durable: legal


# ---------------------------------------------------------------------------
# free-time checks
# ---------------------------------------------------------------------------

def test_freeing_the_live_root_is_caught():
    with sanitized():
        engine, tree = make_tree()
        mbuf = tree.file.pin_meta()
        try:
            root = MetaView(mbuf.data, PAGE).root
        finally:
            tree.file.unpin(mbuf)
        with pytest.raises(SanitizerError, match="live root"):
            tree.file.free(root)


def test_recycling_a_page_that_was_not_erased_is_caught():
    """The freelist's one rule at runtime: a page is handed out only with
    an all-zero stable image, or a lost new version would read back as
    the old page."""
    with sanitized():
        engine, tree = make_tree()
        free = tree.file.freelist.entries()
        assert free, "shadow splits free a page each"
        # the fault: an image lands on a listed page behind the drain
        tree.file.disk.write_page(free[-1], b"\x01" * PAGE)
        with pytest.raises(SanitizerError, match="non-zero stable image"):
            tree.file.allocate()


def test_normal_frees_pass():
    with sanitized():
        engine, tree = make_tree()
        for i in range(50):
            tree.delete(i)
        engine.sync()  # deletes reclaim pages through the legal paths


# ---------------------------------------------------------------------------
# stale decoded nodes (the read path's invariant), with seeded mutants
# ---------------------------------------------------------------------------

def run_workload(tree, seed):
    """Mixed traffic that keeps decoded nodes on the frames: lookups warm
    the leaves, inserts and deletes maintain their lists, splits restamp
    neighbours' headers."""
    rng = random.Random(seed)
    for i in range(400):
        key = rng.randrange(50, 2000)
        if tree.lookup(key) is None:
            tree.insert(key, TID(2, i % 200))
        else:
            tree.delete(key)
        tree.lookup(rng.randrange(50))


def test_header_setter_without_a_version_bump_is_caught():
    with sanitized():
        engine, tree = make_tree()
        tree.lookup(3)
        tree.lookup(3)                  # the leaf's node is decoded now
        page_no = leaf_page_of(tree, 3)
        buf = tree.file.pin(page_no)
        NodeView(buf.data, PAGE).right_peer_token = 99   # no mark_dirty
        with pytest.raises(SanitizerError, match="right_peer_token"):
            tree.file.unpin(buf)


def test_maintained_writes_pass():
    with sanitized():
        engine, tree = make_tree()
        run_workload(tree, seed=0)
        engine.sync()
        assert len(tree.check()) == len(list(tree.range_scan()))


#: the writers that keep their leaf's node current themselves (the
#: mutator assigns the header fields it changed, ``note_insert`` /
#: ``note_delete`` restamp to whatever the frame's version is), so a
#: missing bump under them changes nothing observable
MAINTAINED_WRITERS = {"_insert_run", "_insert_stretch",
                      "_delete_run", "_delete_stretch"}


@pytest.mark.parametrize("seed", range(4))
def test_mutant_skipping_one_version_bump_is_caught(seed, monkeypatch):
    """Seeded mutant: one ``mark_dirty`` of a frame whose node is current
    (a split restamping a neighbour's link, a parent taking a separator)
    marks the frame dirty but forgets the version bump, so the node
    decoded before the write keeps claiming the frame's version."""
    from repro.core.btree_base import BLinkTree
    with sanitized():
        engine, tree = make_tree()
        run_workload(tree, seed)        # healthy: frames carry nodes
        skip_at = random.Random(seed).randrange(1, 6)
        seen = 0
        real_dirty = BLinkTree._dirty

        def dirty(self, buf):
            nonlocal seen
            node = buf.node
            if (node is not None and node.version == buf.version
                    and sys._getframe(1).f_code.co_name
                    not in MAINTAINED_WRITERS):
                seen += 1
                if seen == skip_at:
                    buf.dirty = True    # mark_dirty minus the bump
                    self.file.pool._dirty_frames.add(buf)
                    return
            real_dirty(self, buf)
        monkeypatch.setattr(BLinkTree, "_dirty", dirty)
        with pytest.raises(SanitizerError, match="decoded node"):
            for round_ in range(20):
                run_workload(tree, seed + 100 + round_)
        assert seen == skip_at


@pytest.mark.parametrize("seed", range(4))
def test_mutant_skipping_one_list_update_is_caught(seed, monkeypatch):
    """Seeded mutant: one ``note_delete`` restamps the node but leaves
    the deleted key in the list."""
    from repro.core.nodeview import DecodedNode
    with sanitized():
        engine, tree = make_tree()
        run_workload(tree, seed)
        skip_at = random.Random(seed).randrange(1, 30)
        calls = 0

        def note_delete(node, buf, slot):
            nonlocal calls
            calls += 1
            keys = node.keys
            node.refresh(buf.version)
            if keys is not None:
                if calls != skip_at:
                    del keys[slot]
                node.keys = keys
        monkeypatch.setattr(DecodedNode, "note_delete", note_delete)
        with pytest.raises(SanitizerError, match="key list"):
            for round_ in range(20):
                run_workload(tree, seed + 100 + round_)


@pytest.mark.parametrize("field", ["n_keys", "lower", "upper"])
def test_mutant_writer_forgetting_a_header_field_is_caught(field,
                                                           monkeypatch):
    """Seeded mutant: the leaf writer takes its header fields from the
    frame's node and must assign back the ones it changed; one that
    forgets *field* leaves a node that claims the frame's version with a
    stale header, and the unpin check names the field."""
    real = NodeView.insert_item

    def forgetful(view, index, item, step_hook=None, node=None):
        stale = getattr(node, field, None)
        real(view, index, item, step_hook, node)
        if node is not None:
            setattr(node, field, stale)
    with sanitized():
        engine, tree = make_tree()
        run_workload(tree, 1)               # the real writer passes
        monkeypatch.setattr(NodeView, "insert_item", forgetful)
        with pytest.raises(SanitizerError,
                           match=f"header field {field}: node has"):
            for key in range(5000, 5004):   # one of them does not split
                tree.insert(key, TID(9, 9))
