"""Growth-rate analysis: model vs measured fill factors and heights.

Section 5 rests on assumptions about how full pages are under different
insertion orders.  This module measures the *actual* fill factor and
height of small built trees so the analytic model of
:mod:`repro.model.height` can be validated against the implementation it
models — the ablation the DESIGN calls out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import TREE_CLASSES
from ..core.keys import TID
from ..core.nodeview import NodeView
from ..storage import is_zeroed, try_read_header
from ..storage.engine import StorageEngine
from .height import PageModel, tree_height


@dataclass
class MeasuredTree:
    kind: str
    n_keys: int
    height: int
    leaf_pages: int
    internal_pages: int
    file_pages: int
    leaf_fill: float       # mean fraction of usable leaf bytes in use
    internal_fill: float
    model_height: int


def measure_tree(kind: str, keys, *, page_size: int = 1024,
                 codec: str = "uint32", seed: int = 0,
                 sync_every: int = 256) -> MeasuredTree:
    """Build a tree over *keys* and measure its real shape."""
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec=codec)
    count = 0
    key_size = None
    for key in keys:
        tree.insert(key, TID(1, count % 1000))
        if key_size is None:
            key_size = len(tree.codec.encode(key))
        count += 1
        if count % sync_every == 0:
            engine.sync()
    engine.sync()

    # measure only the pages reachable from the root: a shadow tree leaves
    # freed pre-split images behind in the file (reclaimed by the freelist
    # and the garbage collector), and counting those as live leaves would
    # double the apparent space cost
    leaf_pages = internal_pages = 0
    leaf_used = leaf_total = 0
    internal_used = internal_total = 0
    file = tree.file
    stack = [tree._root_page()]
    while stack:
        page_no = stack.pop()
        if page_no == 0:
            continue
        buf = file.pin(page_no)
        try:
            if is_zeroed(buf.data) or try_read_header(buf.data) is None:
                continue
            view = NodeView(buf.data, page_size)
            if view.page_type not in (2, 3):
                continue
            usable = page_size - 64
            used = usable - view.free_space()
            if view.is_leaf:
                leaf_pages += 1
                leaf_used += used
                leaf_total += usable
            else:
                internal_pages += 1
                internal_used += used
                internal_total += usable
                stack.extend(view.child_at(i) for i in range(view.n_keys))
        finally:
            file.unpin(buf)

    model = PageModel(kind, page_size, key_size or 4,
                      fill_factor=(leaf_used / leaf_total
                                   if leaf_total else 0.5))
    return MeasuredTree(
        kind=kind,
        n_keys=count,
        height=tree.height,
        leaf_pages=leaf_pages,
        internal_pages=internal_pages,
        file_pages=file.n_pages,
        leaf_fill=leaf_used / leaf_total if leaf_total else 0.0,
        internal_fill=(internal_used / internal_total
                       if internal_total else 0.0),
        model_height=tree_height(count, model),
    )


#: Canonical fill factors per insertion order, for the analytic model.
FILL_FACTORS = {
    "ascending": 0.5,   # every split leaves the old page half full
    "random": 0.69,     # the classic ln 2 steady state
    "packed": 1.0,      # bulk-loaded, no splits
}
