"""Property-based tests: random operation sequences against a model.

Hypothesis drives each tree kind through arbitrary insert/delete/lookup
sequences and checks the index always agrees with a plain dict, the scan
is always sorted, and the structural validator stays green.
"""

# the model checker pokes raw pages to cross-check the validator
# (R012 is the per-path form of the same dirty discipline)
# lint: disable=R012

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    DuplicateKeyError,
    KeyNotFoundError,
    StorageEngine,
    TID,
    TREE_CLASSES,
)
from repro.core.keys import KeyBounds, UInt32Codec, make_unique

KEYS = st.integers(0, 400)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("lookup"), KEYS),
        st.tuples(st.just("sync"), st.just(0)),
    ),
    max_size=120,
)


def run_ops(kind, ops, page_size=256):
    engine = StorageEngine.create(page_size=page_size, seed=99)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    model = {}
    for op, key in ops:
        if op == "insert":
            tid = TID(1, key % 100)
            if key in model:
                with pytest.raises(DuplicateKeyError):
                    tree.insert(key, tid)
            else:
                tree.insert(key, tid)
                model[key] = tid
        elif op == "delete":
            if key in model:
                tree.delete(key)
                del model[key]
            else:
                with pytest.raises(KeyNotFoundError):
                    tree.delete(key)
        elif op == "lookup":
            assert tree.lookup(key) == model.get(key)
        else:
            engine.sync()
    engine.sync()
    return tree, model


@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_tree_matches_dict_model(kind, ops):
    tree, model = run_ops(kind, ops)
    pairs = tree.check()
    assert {int.from_bytes(k, "big"): t for k, t in pairs} == model
    values = [v for v, _ in tree.range_scan()]
    assert values == sorted(model)


@settings(max_examples=30, deadline=None)
@given(ops=OPS, lo=KEYS, hi=KEYS)
def test_range_scan_matches_model_slice(ops, lo, hi):
    tree, model = run_ops("shadow", ops)
    values = [v for v, _ in tree.range_scan(lo, hi)]
    assert values == sorted(k for k in model if lo <= k < hi)


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(st.integers(0, 10**6), unique=True, max_size=150))
def test_insert_any_order_yields_sorted_scan(keys):
    engine = StorageEngine.create(page_size=256, seed=5)
    tree = TREE_CLASSES["reorg"].create(engine, "ix", codec="uint32")
    for key in keys:
        tree.insert(key, TID(1, 0))
    engine.sync()
    assert [v for v, _ in tree.range_scan()] == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(0, 50), min_size=1, max_size=60),
       base=st.integers(0, 1000))
def test_duplicate_values_via_make_unique(values, base):
    """Section 2's duplicate rewrite preserves per-value grouping."""
    codec = UInt32Codec()
    engine = StorageEngine.create(page_size=256, seed=5)
    tree = TREE_CLASSES["shadow"].create(engine, "ix", codec="bytes")
    for oid, value in enumerate(values):
        tree.insert(make_unique(codec.encode(value), base + oid),
                    TID(1, oid % 100))
    engine.sync()
    scanned = [v for v, _ in tree.range_scan()]
    assert len(scanned) == len(values)
    decoded = [codec.decode(v[:4]) for v in scanned]
    assert decoded == sorted(values)


@settings(max_examples=60, deadline=None)
@given(lo=st.binary(max_size=4), hi=st.binary(max_size=4),
       key=st.binary(max_size=4))
def test_keybounds_contains_is_consistent(lo, hi, key):
    if hi < lo:
        lo, hi = hi, lo
    bounds = KeyBounds(lo, hi)
    inside = bounds.contains(key)
    assert inside == (lo <= key < hi)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intra_page_insert_images_always_repairable(data):
    """Random mid-insert byte images are always either clean or carry a
    detectable duplicate line-table entry whose repair restores the
    pre-insert key set (Sections 3.3/3.3.2)."""
    from repro.constants import PAGE_LEAF
    from repro.core import items as I
    from repro.core.nodeview import NodeView

    n = data.draw(st.integers(2, 25))
    step = data.draw(st.integers(2, 5))
    view = NodeView(bytearray(512), 512)
    view.init_page(PAGE_LEAF, level=0, sync_token=1)
    existing = list(range(0, n * step, step))
    for i, key in enumerate(existing):
        view.insert_item(i, I.pack_leaf_item(key.to_bytes(4, "big"),
                                             TID(1, i)))
    new_key = data.draw(st.integers(0, n * step + 1).filter(
        lambda k: k not in existing))
    images = []
    slot, _ = view.search(new_key.to_bytes(4, "big"))
    view.insert_item(slot, I.pack_leaf_item(new_key.to_bytes(4, "big"),
                                            TID(1, 99)),
                     step_hook=lambda _l: images.append(bytes(view.buf)))
    pick = data.draw(st.integers(0, len(images) - 1))
    snap = NodeView(bytearray(images[pick]), 512)
    snap.repair_intra_page()
    assert snap.find_intra_page_inconsistency() is None
    recovered = [int.from_bytes(k, "big") for k in snap.keys()]
    assert recovered == existing
