"""Section 4 ablation: physical vs logical index logging volume.

"Combining logical logging and the POSTGRES shadow paging or page
reorganization indices would make the write-ahead log more compact and
prevent B-tree keys corrupted by software errors from propagating into
the log."

Two measurements:

* bytes and records logged for the same split-heavy insert workload under
  ARIES/IM-style physical logging (baseline tree) vs logical logging
  (shadow tree);
* the corruption-propagation probe: a poisoned key planted on a page
  shows up verbatim in the physical log, never in the logical log.

Physical logging exists for this volume comparison only: nothing in
the repo replays a physical log (recovery time against log volume is
the ``wal_replay`` workload of ``python -m perf``).

Usage::

    python -m repro.bench.logvolume [--n 10000] [--page-size 4096]
"""

from __future__ import annotations

import argparse

from ..core.keys import TID
from ..storage import StorageEngine
from ..wal import (
    LogicalLoggingTree,
    PhysicalLoggingTree,
    physical_records_containing,
)


def run(*, n: int = 10000, page_size: int = 4096) -> dict:
    phys_engine = StorageEngine.create(page_size=page_size, seed=1)
    phys = PhysicalLoggingTree.create(phys_engine, "p")
    logi_engine = StorageEngine.create(page_size=page_size, seed=1)
    logi = LogicalLoggingTree.create(logi_engine, "l", kind="shadow")

    # plant a recognizable "software-corrupted" key: key bytes the caller
    # never produced, written directly onto the rightmost leaf so the next
    # ascending split moves them (and physical logging copies them)
    poison = b"\x00\xbe\xef\x00"
    for i in range(n):
        tid = TID(1 + (i >> 8), i & 0xFF)
        phys.insert(i, tid)
        logi.insert(i, tid)
        if i == n // 2:
            _poison_a_page(phys.tree, poison)
            _poison_a_page(logi.tree, poison)
    phys.commit()
    logi.commit()

    return {
        "n": n,
        "phys_bytes": phys.log.bytes_written,
        "phys_records": len(phys.log),
        "logi_bytes": logi.log.bytes_written,
        "logi_records": len(logi.log),
        "ratio": phys.log.bytes_written / logi.log.bytes_written,
        "phys_poisoned": len(physical_records_containing(phys.log, poison)),
        "logi_poisoned": len(physical_records_containing(logi.log, poison)),
        "splits": phys.tree.stats_splits,
    }


def _poison_a_page(tree, poison: bytes) -> None:
    """Overwrite the last key's bytes on the rightmost leaf — the software
    error Section 4 worries about.  The replacement is larger than any
    workload key, so the page stays sorted and passes every range check,
    and the key sits in the half the next split will move."""
    from ..core.nodeview import NodeView
    root = tree._root_page()
    buf = tree.file.pin(root)
    try:
        view = NodeView(buf.data, tree.page_size)
        while not view.is_leaf:
            child = view.child_at(view.n_keys - 1)
            tree.file.unpin(buf)
            buf = None  # pin() below can raise: never double-release
            buf = tree.file.pin(child)
            view = NodeView(buf.data, tree.page_size)
        offset = view.item_off(view.n_keys - 1)
        # corrupt the key bytes in place (length prefix is 2 bytes);
        # deliberately bypasses the page layer — this *is* the fault
        buf.data[offset + 2: offset + 2 + len(poison)] = poison  # lint: disable=R002
        tree.file.mark_dirty(buf)
    finally:
        if buf is not None:
            tree.file.unpin(buf)


def print_report(data: dict) -> None:
    print(f"workload: {data['n']:,} ascending inserts "
          f"({data['splits']} splits)")
    print(f"physical log: {data['phys_bytes']:>10,} bytes "
          f"({data['phys_records']:,} records)")
    print(f"logical  log: {data['logi_bytes']:>10,} bytes "
          f"({data['logi_records']:,} records)")
    print(f"physical / logical volume ratio: {data['ratio']:.2f}x")
    print()
    print("corruption propagation (poisoned key planted on a page):")
    print(f"  physical log records containing the poison: "
          f"{data['phys_poisoned']}")
    print(f"  logical  log records containing the poison: "
          f"{data['logi_poisoned']} "
          "(logical logging never copies index bytes into the log)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--page-size", type=int, default=4096)
    args = parser.parse_args(argv)
    print_report(run(n=args.n, page_size=args.page_size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
