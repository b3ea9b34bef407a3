"""The per-key validator ``BLinkTree.check`` used to be, kept as the
reference its page-granular replacement is compared against.

One loop iteration per key (order, then containment), one ``(key, TID)``
pair per key, then ``sorted`` and ``set`` over every key of the index —
slow and obviously right.  It reads the tree exactly as the product's
walker does (same pins, same decoded nodes, same peer-chain check), so on
any state the two must return the same pairs or raise the same error.
Like the walker, it refuses a page reached a second time and one whose
magic or page type is not a tree page's.
"""

from __future__ import annotations

from repro.constants import INVALID_PAGE, PAGE_INTERNAL, PAGE_LEAF, PAGE_MAGIC
from repro.core.btree_base import _raise_finding as raise_finding
from repro.core.keys import FULL_BOUNDS, MIN_KEY
from repro.errors import TreeError


def reference_check(tree, *, strict_tokens: bool = True,
                    require_peer_chain: bool = True):
    root = tree._root_page()
    if root == INVALID_PAGE:
        return []
    leaves: list[int] = []
    pairs: list = []
    root_buf, root_node = tree._pin_node(root)
    try:
        _check_subtree(tree, root, root_node, FULL_BOUNDS, None,
                       INVALID_PAGE, leaves, pairs, set())
    finally:
        tree._unpin(root_buf)
    if require_peer_chain:
        tree._check_peer_chain(leaves, strict_tokens=strict_tokens,
                               report=raise_finding)
    keys = [k for k, _ in pairs]
    if keys != sorted(keys):
        raise TreeError("keys not globally sorted")
    if len(set(keys)) != len(keys):
        raise TreeError("duplicate keys present")
    return pairs


def _check_subtree(tree, page_no, node, bounds, level, parent, leaves, pairs,
                   seen):
    if page_no in seen:
        raise TreeError(
            f"page {page_no}: reached twice (second parent {parent})")
    seen.add(page_no)
    if node.magic != PAGE_MAGIC or node.page_type not in (PAGE_LEAF,
                                                          PAGE_INTERNAL):
        raise TreeError(
            f"page {page_no}: unreadable (magic {node.magic:#06x}, "
            f"type {node.page_type}), reached from page {parent}")
    if level is None:
        level = node.level
    if node.level != level:
        raise TreeError(
            f"page {page_no}: level {node.level}, expected {level}")
    prev_key = None
    is_leaf = node.is_leaf
    keys = node.all_keys()
    lo, hi = bounds.lo, bounds.hi
    for i, key in enumerate(keys):
        if prev_key is not None and key <= prev_key:
            raise TreeError(f"page {page_no}: keys out of order at {i}")
        prev_key = key
        if not is_leaf and i == 0:
            # entry 0 carries the low separator; containment is implied
            if key != MIN_KEY and key < bounds.lo:
                raise TreeError(
                    f"page {page_no}: entry-0 separator below bounds")
            continue
        if key < lo or (hi is not None and key >= hi):
            raise TreeError(
                f"page {page_no}: key {key.hex()} outside "
                f"[{lo.hex()}, {'inf' if hi is None else hi.hex()})"
            )
    if is_leaf:
        pairs.extend(zip(keys, node.all_tids()))
        leaves.append(page_no)
        return
    for i, child_no in enumerate(node.all_children()):
        child_bounds = tree._child_bounds(node, i, bounds)
        cbuf, cnode = tree._pin_node(child_no)
        try:
            _check_subtree(tree, child_no, cnode, child_bounds, level - 1,
                           page_no, leaves, pairs, seen)
        finally:
            tree._unpin(cbuf)
