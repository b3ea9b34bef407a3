"""Shared machinery for the decoded-node tests."""

from __future__ import annotations

import struct
from contextlib import contextmanager
from unittest import mock

from repro import TID
from repro.core import nodeview
from repro.core.nodeview import DecodedNode, NodeView


def _undecodable(*_args, **_kwargs):
    raise struct.error("bulk decode disabled by bytes_only()")


@contextmanager
def bytes_only():
    """Run a block with every bulk decode reporting "undecodable".

    Searches then binary-search the page bytes and whole-page readers take
    the per-item :class:`NodeView` decode — the reference implementation
    the node's lists are checked against.  This is a test harness, not a
    mode: the product has one read path, and this is its fallback leg.
    """
    with mock.patch.object(nodeview, "_decode_keys", _undecodable), \
            mock.patch.object(nodeview, "_decode_tails", _undecodable):
        yield


def with_first_root(tree):
    """Give an empty uint32 tree its first root, an empty leaf, so that a
    batch loaded next goes through the split path (``_insert_run``)
    instead of the bottom-up build an empty tree gets."""
    tree.insert(0, TID(1, 0))
    tree.delete(0)
    return tree


def leaf_page_of(tree, key) -> int:
    """The page number of the leaf a descent for *key* ends on."""
    path = tree._descend(tree.codec.encode(key))
    try:
        return path[-1].page_no
    finally:
        tree._unpin_path(path)


def leaf_nodes(tree) -> list[DecodedNode]:
    """The decoded node of every leaf, left to right along the chain."""
    nodes = []
    path = tree._descend(b"")
    page_no = path[-1].page_no
    tree._unpin_path(path)
    while page_no:
        buf = tree.file.pin(page_no)
        try:
            nodes.append(DecodedNode(buf.data, buf.version))
        finally:
            tree.file.unpin(buf)
        page_no = nodes[-1].right_peer
    return nodes


def all_page_bytes(tree) -> list[bytes]:
    """Every page of the tree's file as the pool sees it, meta included."""
    pool = tree.file.pool
    out = []
    for page_no in range(tree.file.n_pages):
        buf = pool.pin(page_no)
        try:
            out.append(bytes(buf.data))
        finally:
            pool.unpin(buf)
    return out


def fresh_node(buf) -> DecodedNode:
    """A node decoded from *buf*'s bytes now, lists materialised."""
    node = DecodedNode(buf.data, buf.version)
    node.materialise()
    return node


def assert_node_matches_bytes(buf, page_size: int) -> None:
    """The frame's node (if current) equals both a fresh bulk decode and
    the per-item :class:`NodeView` decode of the same bytes."""
    node = buf.node
    if node is None or node.version != buf.version:
        return
    assert node.mismatch() is None, (buf, node.mismatch())
    if node.keys is not None:
        view = NodeView(buf.data, page_size)
        assert node.keys == list(view.keys())
        if node.children is not None:
            assert node.children == [view.child_at(i)
                                     for i in range(view.n_keys)]


def assert_all_nodes_match_bytes(tree) -> None:
    for buf in list(tree.file.pool._frames.values()):
        assert_node_matches_bytes(buf, tree.page_size)
