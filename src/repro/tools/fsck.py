"""Offline index verifier — an fsck for the no-WAL index files.

The paper's system never needs an offline pass (that is the point), but a
verifier is invaluable for testing and operations: it walks an index file
read-only, classifies every page, checks every invariant the lazy
detectors would check on first use, and reports what a first-use pass
*would* repair — without mutating anything.

Usage (library)::

    from repro.tools.fsck import fsck_tree, fsck_engine, fsck_group
    report = fsck_tree(tree)          # one index file
    report = fsck_engine(engine)      # every index file in one engine
    report = fsck_group(group)        # every shard of a sharded group
    print(report.render())

Usage (CLI — disks are in-memory, so the tool builds a scenario,
crashes it, and verifies what survived)::

    python -m repro.tools.fsck                   # one engine, two files
    python -m repro.tools.fsck --shards 4        # a 4-shard group
    python -m repro.tools.fsck --no-crash        # clean build, no damage
    python -m repro.tools.fsck --json

Exit status is 0 when no error-severity findings were recorded
(info/warn findings — repairable damage — do not fail the check) and
2 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import INVALID_PAGE, PAGE_CONTROL, PAGE_INTERNAL, PAGE_LEAF
from ..core.items import leaf_item_size
from ..core.keys import FULL_BOUNDS, MIN_KEY, KeyBounds
from ..core.meta import MetaView
from ..core.nodeview import NodeView
from ..errors import ReproError
from ..obs import get_registry, get_trace
from ..storage import tokens_match, valid_magic
from ..storage.page import HEADER_SIZE, LINE_ENTRY_SIZE


@dataclass
class Finding:
    severity: str          # "info" | "warn" | "error"
    page_no: int
    message: str

    def __str__(self) -> str:
        return f"[{self.severity:<5}] page {self.page_no}: {self.message}"


@dataclass
class FsckReport:
    pages_scanned: int = 0
    reachable: set = field(default_factory=set)
    leaves: int = 0
    internals: int = 0
    keys: int = 0
    #: bytes the reachable leaves' live entries take (items + line table)
    leaf_bytes: int = 0
    #: bytes those leaves could hold (page minus header)
    leaf_capacity: int = 0
    #: pages on the freelist, erased and allocatable
    free_pages: int = 0
    orphans: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    _counters: dict = field(default_factory=dict, repr=False)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warn")

    @property
    def leaf_fill(self) -> float:
        """Live bytes over usable bytes across the reachable leaves (0 for
        an index with no leaf)."""
        return (self.leaf_bytes / self.leaf_capacity
                if self.leaf_capacity else 0.0)

    def add(self, severity: str, page_no: int, message: str) -> None:
        self.findings.append(Finding(severity, page_no, message))
        counter = self._counters.get(severity)
        if counter is None:
            counter = self._counters[severity] = get_registry().counter(
                "fsck.findings", severity=severity)
        counter.inc()
        get_trace().emit("fsck_finding", page=page_no, severity=severity,
                         message=message)

    def render(self) -> str:
        lines = [
            f"pages scanned: {self.pages_scanned}; reachable: "
            f"{len(self.reachable)} ({self.internals} internal, "
            f"{self.leaves} leaf, {self.leaf_fill:.0%} full); keys: "
            f"{self.keys}; free: {self.free_pages}; orphans: "
            f"{len(self.orphans)}",
            f"errors: {self.errors}, warnings: {self.warnings}",
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)


def fsck_tree(tree, *, check_peers: bool = True) -> FsckReport:
    """Verify a B-link-tree file without mutating it."""
    report = FsckReport()
    file = tree.file
    page_size = tree.page_size

    mbuf = file.pin_meta()
    try:
        meta = MetaView(mbuf.data, page_size)
        try:
            meta.check()
        except ReproError as exc:
            report.add("error", 0, f"meta page invalid: {exc}")
            return report
        root = meta.root
        prev_root = meta.prev_root
    finally:
        file.unpin(mbuf)
    report.reachable.add(0)

    if root == INVALID_PAGE:
        report.add("info", 0, "empty index (no root)")
        report.pages_scanned = file.n_pages
        return report

    # reachability walk with invariant checks
    leaves_in_order: list[int] = []
    stack: list[tuple[int, KeyBounds, int | None]] = [(root, FULL_BOUNDS,
                                                      None)]
    expected_level = None
    while stack:
        page_no, bounds, parent = stack.pop()
        if page_no in report.reachable:
            report.add("error", page_no,
                       f"reached twice (second parent {parent})")
            continue
        report.reachable.add(page_no)
        buf = file.pin(page_no)
        try:
            view = NodeView(buf.data, page_size)
            if not valid_magic(buf.data):
                report.add("error", page_no,
                           "unreadable/zeroed page reachable from "
                           f"parent {parent} — a first-use descent would "
                           "repair this")
                continue
            if view.page_type not in (PAGE_LEAF, PAGE_INTERNAL):
                report.add("error", page_no,
                           f"unexpected page type {view.page_type}")
                continue
            if view.find_intra_page_inconsistency() is not None:
                report.add("warn", page_no,
                           "duplicate line-table offsets (interrupted "
                           "insert; repairable)")
            # single streaming pass: order (prev-compare) and containment
            # share one key decode instead of materializing and sorting a
            # throwaway list per page
            prev_key = None
            ordered = True
            contained = True
            is_leaf = view.is_leaf
            for key in view.keys():
                if ordered and prev_key is not None and key < prev_key:
                    report.add("error", page_no, "keys out of order")
                    ordered = False
                prev_key = key
                if contained and not (key == MIN_KEY and not is_leaf) \
                        and not bounds.contains(key):
                    report.add("warn", page_no,
                               f"key {key.hex()} outside expected range "
                               "(stale pre-split image; repairable)")
                    contained = False
                if not ordered and not contained:
                    break
            if view.prev_n_keys:
                report.add("info", page_no,
                           f"holds {view.backup_count} backup keys "
                           f"(reorg split awaiting reclamation)")
            if view.is_leaf:
                report.leaves += 1
                report.keys += view.n_keys
                report.leaf_bytes += sum(
                    leaf_item_size(key) + LINE_ENTRY_SIZE
                    for key in view.keys())
                report.leaf_capacity += page_size - HEADER_SIZE
                leaves_in_order.append(page_no)
            else:
                report.internals += 1
                for i in reversed(range(view.n_keys)):
                    lo = view.key_at(i)
                    hi = (view.key_at(i + 1) if i + 1 < view.n_keys
                          else bounds.hi)
                    stack.append((view.child_at(i),
                                  bounds.child(lo, hi), page_no))
        finally:
            file.unpin(buf)

    if check_peers and leaves_in_order:
        _check_chain(tree, report, leaves_in_order)

    # the freelist's one rule: every listed page is erased on stable
    # storage, so a lost new image of it reads back as zeros
    free = file.freelist.entries()
    report.free_pages = len(free)
    for page_no in free:
        image = file.disk.durable_image(page_no)
        if image is not None and image.count(0) != len(image):
            report.add("error", page_no, "page on the freelist is not "
                       "erased on stable storage (a lost new image would "
                       "read back as the old page)")

    # orphan census
    report.pages_scanned = file.n_pages
    for page_no in range(1, file.n_pages):
        if page_no in report.reachable or page_no in file.freelist:
            continue
        buf = file.pin(page_no)
        try:
            if valid_magic(buf.data):
                report.orphans.append(page_no)
        finally:
            file.unpin(buf)
    if report.orphans:
        report.add("info", report.orphans[0],
                   f"{len(report.orphans)} orphaned pages "
                   "(pre-split shadows / abandoned halves; the garbage "
                   "collector reclaims these)")
    if prev_root not in (INVALID_PAGE,):
        report.add("info", prev_root, "previous root (recovery source)")
    return report


def _check_chain(tree, report: FsckReport, leaves: list[int]) -> None:
    file = tree.file
    chain = []
    page_no = leaves[0]
    seen = set()
    while page_no != INVALID_PAGE and page_no not in seen:
        seen.add(page_no)
        chain.append(page_no)
        buf = file.pin(page_no)
        try:
            view = NodeView(buf.data, tree.page_size)
            if not valid_magic(buf.data):
                report.add("warn", page_no, "peer chain enters an "
                           "unreadable page")
                break
            nxt = view.right_peer
            if nxt != INVALID_PAGE:
                nbuf = file.pin(nxt)
                try:
                    nview = NodeView(nbuf.data, tree.page_size)
                    if (valid_magic(nbuf.data)
                            and not tokens_match(nview.left_peer_token,
                                                 view.right_peer_token)):
                        report.add("warn", page_no,
                                   f"peer link tokens disagree toward "
                                   f"{nxt} (scan-time healing would fix)")
                finally:
                    file.unpin(nbuf)
        finally:
            file.unpin(buf)
        page_no = nxt
    if chain != leaves:
        extra = [p for p in chain if p not in leaves]
        missing = [p for p in leaves if p not in chain]
        report.add("warn", chain[0],
                   f"peer chain differs from in-order leaves "
                   f"(stale dual path: extra={extra[:4]}, "
                   f"unreached={missing[:4]}; first-insert check heals)")


# ----------------------------------------------------------------------
# engine- and group-wide verification
# ----------------------------------------------------------------------

@dataclass
class EngineFsckReport:
    """fsck of every index file one engine holds."""

    files: dict = field(default_factory=dict)    # name -> FsckReport
    skipped: dict = field(default_factory=dict)  # name -> reason

    @property
    def errors(self) -> int:
        return sum(r.errors for r in self.files.values())

    @property
    def warnings(self) -> int:
        return sum(r.warnings for r in self.files.values())

    @property
    def keys(self) -> int:
        return sum(r.keys for r in self.files.values())

    def render(self) -> str:
        lines = []
        for name, report in sorted(self.files.items()):
            lines.append(f"file {name!r}:")
            lines.extend("  " + line
                         for line in report.render().splitlines())
        for name, reason in sorted(self.skipped.items()):
            lines.append(f"file {name!r}: skipped ({reason})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "errors": self.errors,
            "warnings": self.warnings,
            "keys": self.keys,
            "files": {
                name: {
                    "errors": r.errors,
                    "warnings": r.warnings,
                    "keys": r.keys,
                    "file_pages": r.pages_scanned,
                    "free_pages": r.free_pages,
                    "leaf_fill": round(r.leaf_fill, 4),
                    "orphans": len(r.orphans),
                    "findings": [str(f) for f in r.findings],
                }
                for name, r in self.files.items()
            },
            "skipped": dict(self.skipped),
        }


def fsck_engine(engine, *, check_peers: bool = True) -> EngineFsckReport:
    """Verify every index file an engine holds (read-only).

    Files whose meta page names a non-tree kind (heap files stamp
    ``"none"``) or that cannot be opened are recorded as skipped rather
    than failing the whole pass.
    """
    from ..core import open_tree
    from ..errors import TreeError

    out = EngineFsckReport()
    for name in engine.file_names():
        try:
            tree = open_tree(engine, name)
        except TreeError as exc:
            out.skipped[name] = str(exc)
            continue
        except ReproError as exc:
            out.files[name] = report = FsckReport()
            report.add("error", 0, f"cannot open: {exc}")
            continue
        out.files[name] = fsck_tree(tree, check_peers=check_peers)
    return out


@dataclass
class GroupFsckReport:
    """fsck of every shard of a sharded engine group."""

    shards: dict = field(default_factory=dict)  # index -> EngineFsckReport
    dead: list = field(default_factory=list)    # unrecovered shard indexes

    @property
    def errors(self) -> int:
        return sum(r.errors for r in self.shards.values())

    @property
    def warnings(self) -> int:
        return sum(r.warnings for r in self.shards.values())

    @property
    def keys(self) -> int:
        return sum(r.keys for r in self.shards.values())

    def render(self) -> str:
        lines = [f"group: {len(self.shards)} shard(s) checked, "
                 f"{len(self.dead)} dead, {self.errors} error(s), "
                 f"{self.warnings} warning(s), {self.keys} key(s)"]
        for index in self.dead:
            lines.append(f"shard {index}: DEAD (crashed, unrecovered — "
                         "run the recovery orchestrator)")
        for index, report in sorted(self.shards.items()):
            lines.append(f"shard {index}:")
            lines.extend("  " + line
                         for line in report.render().splitlines())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "errors": self.errors,
            "warnings": self.warnings,
            "keys": self.keys,
            "dead": list(self.dead),
            "shards": {str(i): r.to_dict()
                       for i, r in self.shards.items()},
        }


def fsck_group(group, *, check_peers: bool = True) -> GroupFsckReport:
    """Verify every live shard of a group; dead shards are listed, not
    scanned (their buffer pools are gone until recovery reopens them)."""
    out = GroupFsckReport()
    for index, engine in enumerate(group.shards):
        if engine.dead:
            out.dead.append(index)
            continue
        out.shards[index] = fsck_engine(engine, check_peers=check_peers)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _build_single(kind: str, keys: int, page_size: int, seed: int,
                  crash: bool):
    """One engine, two index files; optionally crash mid-load."""
    from ..core import TREE_CLASSES
    from ..core.keys import TID
    from ..errors import CrashError
    from ..storage import RandomSubsetCrash, StorageEngine

    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "demo", codec="uint32")
    side = TREE_CLASSES[kind].create(engine, "demo2", codec="uint32")
    for i in range(keys):
        tree.insert(i, TID(1, i % 100))
        if i % 3 == 0:
            side.insert(i, TID(2, i % 100))
        if (i + 1) % 25 == 0:
            try:
                engine.sync()
            except CrashError:
                break
        if crash and i == int(keys * 0.66):
            engine.crash_policy = RandomSubsetCrash(p=1.0, seed=seed + 3)
    if crash and not engine.dead:
        try:
            engine.sync(RandomSubsetCrash(p=1.0, seed=seed + 3))
        except CrashError:
            pass
    if engine.dead:
        # restart and drive the first-use repairs, so error-severity
        # findings below mean unrepaired damage, not just a fresh crash
        from ..core import open_tree
        engine = StorageEngine.reopen_after_crash(engine)
        for name in engine.file_names():
            recovered = open_tree(engine, name)
            for i in range(keys):
                recovered.lookup(i)
            list(recovered.range_scan())
        engine.sync()
    return engine


def _build_group(kind: str, n_shards: int, keys: int, page_size: int,
                 seed: int, crash: bool):
    """A shard group; optionally crash half the shards, then recover
    them through the orchestrator before verifying."""
    from ..core.keys import TID
    from ..errors import CrashError
    from ..shard import RecoveryOrchestrator, ShardedEngine
    from ..storage import RandomSubsetCrash
    from ..storage.engine import EngineDeadError

    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    tree = group.create_tree(kind, "demo", codec="uint32")
    for i in range(keys):
        tree.insert(i, TID(1, i % 100))
        if (i + 1) % 64 == 0:
            group.sync_all()
    group.sync_all()
    if crash:
        for index in range(0, n_shards, 2):
            victim = group.shard(index)
            victim.crash_policy = RandomSubsetCrash(p=1.0, seed=seed + index)
            extra = keys + index * 97
            for j in range(64):
                try:
                    tree.insert(extra + j, TID(3, j))
                except CrashError:
                    break
                except EngineDeadError:
                    continue  # routed to an already-crashed sibling
            if not victim.dead:
                try:
                    victim.sync()
                except CrashError:
                    pass
        orchestrator = RecoveryOrchestrator()
        group, _report = orchestrator.recover(group, "demo")
    return group


def main(argv=None) -> int:
    import argparse
    import json
    import sys

    from ..core import TREE_CLASSES

    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fsck",
        description="Build a crash scenario (disks are in-memory) and "
                    "verify every file of the engine — or every shard "
                    "of a sharded group — read-only.")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="verify an N-shard group instead of a "
                             "single engine (default: 1)")
    parser.add_argument("--kind", default="shadow",
                        choices=sorted(TREE_CLASSES),
                        help="tree kind to build (default: shadow)")
    parser.add_argument("--keys", type=int, default=300,
                        help="keys to load before crashing (default: 300)")
    parser.add_argument("--page-size", type=int, default=512)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the crash: verify a cleanly built "
                             "index (expect zero findings)")
    parser.add_argument("--no-peers", action="store_true",
                        help="skip the peer-chain walk")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    check_peers = not args.no_peers
    if args.shards == 1:
        engine = _build_single(args.kind, args.keys, args.page_size,
                               args.seed, crash=not args.no_crash)
        report = fsck_engine(engine, check_peers=check_peers)
    else:
        group = _build_group(args.kind, args.shards, args.keys,
                             args.page_size, args.seed,
                             crash=not args.no_crash)
        report = fsck_group(group, check_peers=check_peers)

    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(report.render())
    return 0 if report.errors == 0 else 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
