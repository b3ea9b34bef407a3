"""Offline index verifier — an fsck for the no-WAL index files.

It judges a file read-only with the tree's own validator walk
(``BLinkTree.findings``: the walk ``check()`` makes, collecting every
finding where ``check`` raises on the first) and adds what the tree
cannot know about its file: the meta check, the erased-freelist rule,
the orphan census and leaf fill.  ``fsck_tree(tree)``,
``fsck_engine(engine)`` (every file) and ``fsck_group(group)`` (every
live shard) return reports with ``render()`` and ``to_dict()``.

CLI: ``python -m repro.tools.fsck [--json] SCRIPT [ARGS...]``.  Disks are
in-memory, so the tool runs SCRIPT in this process as ``__main__``, like
``repro.tools.stats``, and verifies the ``group`` or ``engine`` it leaves
as a global (``examples/fsck_scenarios.py`` builds crashed ones).  Exit
status is 2 when an error-severity finding was recorded, else 0 (warn
findings, repairable damage, do not fail the check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..constants import INVALID_PAGE
from ..core import open_tree
from ..core.detect import Finding
from ..core.items import leaf_item_size
from ..core.meta import MetaView
from ..core.nodeview import NodeView
from ..errors import ReproError, TreeError
from ..obs import get_registry, get_trace
from ..storage import valid_magic
from ..storage.page import HEADER_SIZE, LINE_ENTRY_SIZE
from .stats import run_cli


@dataclass
class FsckReport:
    pages_scanned: int = 0
    reachable: set = field(default_factory=set)
    leaves: int = 0
    internals: int = 0
    keys: int = 0
    #: live bytes (items and line table) over usable bytes (page minus
    #: header) across the reachable leaves; 0 for an index with no leaf
    leaf_fill: float = 0.0
    #: pages on the freelist, erased and allocatable
    free_pages: int = 0
    orphans: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warn")

    def add(self, severity: str, page_no: int, message: str) -> None:
        self.findings.append(Finding(severity, page_no, message))
        get_registry().counter("fsck.findings", severity=severity).inc()
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

    def to_dict(self) -> dict:
        return {"errors": self.errors, "warnings": self.warnings,
                "keys": self.keys, "file_pages": self.pages_scanned,
                "free_pages": self.free_pages,
                "leaf_fill": round(self.leaf_fill, 4),
                "orphans": len(self.orphans),
                "findings": [str(f) for f in self.findings]}


def fsck_tree(tree, *, check_peers: bool = True) -> FsckReport:
    """Verify a B-link-tree file without mutating it."""
    report = FsckReport()
    file = tree.file
    report.pages_scanned = file.n_pages
    with file.pinned_meta() as mbuf:
        meta = MetaView(mbuf.data, tree.page_size)
        try:
            meta.check()
        except ReproError as exc:
            report.add("error", 0, f"page 0: meta page invalid: {exc}")
            return report
        prev_root = meta.prev_root

    walk = tree.findings(check_peers=check_peers)
    for finding in walk:
        report.add(*finding)
    report.reachable = {0, *walk.pages}
    report.leaves, report.internals = len(walk.leaves), walk.internals
    report.keys = walk.keys
    live = 0
    for page_no in walk.leaves:
        with file.pinned(page_no) as buf:
            live += sum(leaf_item_size(key) + LINE_ENTRY_SIZE
                        for key in NodeView(buf.data, tree.page_size).keys())
    if walk.leaves:
        report.leaf_fill = live / (report.leaves
                                   * (tree.page_size - HEADER_SIZE))

    # the freelist's one rule: every listed page is erased on stable
    # storage, so a lost new image of it reads back as zeros
    free = file.freelist.entries()
    report.free_pages = len(free)
    for page_no in free:
        image = file.disk.durable_image(page_no)
        if image is not None and image.count(0) != len(image):
            report.add("error", page_no, f"page {page_no}: on the freelist "
                       "but not erased on stable storage")

    # orphan census: valid pages that nothing reaches or lists as free
    for page_no in range(1, file.n_pages):
        if page_no in report.reachable or page_no in file.freelist:
            continue
        with file.pinned(page_no) as buf:
            if valid_magic(buf.data):
                report.orphans.append(page_no)
    if report.orphans:
        first = report.orphans[0]
        report.add("info", first, f"page {first}: first of "
                   f"{len(report.orphans)} orphaned pages (the garbage "
                   "collector reclaims them)")
    if not walk.pages:
        report.add("info", 0, "page 0: empty index (no root)")
    if prev_root != INVALID_PAGE:
        report.add("info", prev_root,
                   f"page {prev_root}: previous root (recovery source)")
    return report


@dataclass
class _Rollup:
    """Totals, text and JSON over per-``LABEL`` reports and skips."""

    LABEL: ClassVar[str]
    parts: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return sum(r.errors for r in self.parts.values())

    @property
    def warnings(self) -> int:
        return sum(r.warnings for r in self.parts.values())

    @property
    def keys(self) -> int:
        return sum(r.keys for r in self.parts.values())

    def render(self) -> str:
        lines = []
        for name, report in sorted(self.parts.items()):
            lines.append(f"{self.LABEL} {name!r}:")
            lines.extend("  " + line
                         for line in report.render().splitlines())
        lines.extend(f"{self.LABEL} {name!r}: skipped ({why})"
                     for name, why in sorted(self.skipped.items()))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"errors": self.errors, "warnings": self.warnings,
                "keys": self.keys,
                "skipped": {str(k): why for k, why in self.skipped.items()},
                self.LABEL + "s": {str(k): r.to_dict()
                                   for k, r in self.parts.items()}}


class EngineFsckReport(_Rollup):
    """fsck of every index file one engine holds, by file name."""

    LABEL = "file"


class GroupFsckReport(_Rollup):
    """fsck of every shard of a group, by index."""

    LABEL = "shard"

    def render(self) -> str:
        return (f"group: {len(self.parts)} shard(s) checked, "
                f"{len(self.skipped)} dead, {self.errors} error(s), "
                f"{self.warnings} warning(s), {self.keys} key(s)\n"
                + super().render())


def fsck_engine(engine) -> EngineFsckReport:
    """Verify every index file an engine holds; a heap file (no tree
    kind) is skipped, one that cannot be opened is an error."""
    out = EngineFsckReport()
    for name in engine.file_names():
        try:
            tree = open_tree(engine, name)
        except TreeError as exc:
            out.skipped[name] = str(exc)
        except ReproError as exc:
            out.parts[name] = report = FsckReport()
            report.add("error", 0, f"page 0: cannot open: {exc}")
        else:
            out.parts[name] = fsck_tree(tree)
    return out


def fsck_group(group) -> GroupFsckReport:
    """Verify every live shard of a group; a dead shard is skipped (its
    buffer pool is gone until recovery reopens it)."""
    out = GroupFsckReport()
    for index, engine in enumerate(group.shards):
        if engine.dead:
            out.skipped[index] = ("DEAD (crashed, unrecovered — run the "
                                  "recovery orchestrator)")
        else:
            out.parts[index] = fsck_engine(engine)
    return out


def main(argv=None) -> int:
    def verify(scope):
        if scope.get("group") is not None:
            report = fsck_group(scope["group"])
        elif scope.get("engine") is not None:
            report = fsck_engine(scope["engine"])
        else:
            raise SystemExit("fsck: the script left no `group` or `engine` "
                             "global to verify")
        return report.to_dict(), report.render, 0 if not report.errors else 2

    return run_cli("python -m repro.tools.fsck",
                   "Run a Python script in this process, then verify the "
                   "`group` (every shard) or `engine` (every file) it "
                   "leaves as a global, read-only.", argv, verify)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
