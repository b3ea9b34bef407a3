"""Inconsistency taxonomy, detection reports and validator findings.

Every inconsistency the recoverable trees detect and repair is recorded as
a :class:`DetectionReport` on the tree's ``repair_log``, so tests and the
recovery benchmark can assert not just *that* the tree healed but *what* it
healed (which of the paper's failure cases actually occurred).  What the
validator walk (``BLinkTree.check`` / ``verify`` / ``findings``) sees is a
:class:`Finding`, graded by the one :data:`SEVERITY` table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..obs import TIME_BUCKETS, get_registry, get_trace
from ..obs.metrics import Counter, Histogram


class Kind(enum.Enum):
    """What was detected (paper sections in parentheses)."""

    #: child slot zeroed on stable storage — allocated but never written (3.3.1)
    ZEROED_CHILD = "zeroed-child"
    #: child key range disagrees with the parent's expectation (3.3.1)
    RANGE_MISMATCH = "range-mismatch"
    #: child contains keys beyond its expected range — it is the pre-split
    #: page and the split must be redone (3.4 cases d/e)
    WIDE_CHILD = "wide-child"
    #: reorg page still holding backup keys from before the last crash (3.4
    #: reclamation case 3)
    STALE_BACKUP = "stale-backup"
    #: reorg sibling lost; regenerated from backup keys (3.4 case c)
    LOST_SIBLING = "lost-sibling"
    #: split undone by restoring the original page (3.4 cases a/b)
    RESTORED_ORIGINAL = "restored-original"
    #: two adjacent line-table entries share an offset (3.3.1)
    INTRA_PAGE = "intra-page"
    #: the root page image was lost; previous root reinstated (3.3.2)
    LOST_ROOT = "lost-root"
    #: peer-pointer sync tokens disagree across a link (3.5.1)
    PEER_TOKEN_MISMATCH = "peer-token-mismatch"
    #: a leaf predating the last crash was re-verified against the peer
    #: path before its first post-crash insert (3.5.1)
    PEER_PATH_CHECK = "peer-path-check"


class Action(enum.Enum):
    """How consistency was restored."""

    REBUILT_FROM_PREV = "rebuilt-from-prev"        # shadow prevPtr copy
    REBUILT_FROM_BACKUP = "rebuilt-from-backup"    # reorg backup copy
    RESTORED_BACKUP = "restored-backup"            # reorg nKeys := prevNKeys
    REDID_SPLIT = "redid-split"                    # reorg case d/e
    RECLAIMED_BACKUP = "reclaimed-backup"          # backup no longer needed
    DELETED_DUPLICATE = "deleted-duplicate"        # intra-page repair
    COPIED_PREV_ROOT = "copied-prev-root"          # root repair
    RELINKED_PEER = "relinked-peer"                # peer repair via descent
    VERIFIED_ONLY = "verified-only"                # detection found no damage


@dataclass
class DetectionReport:
    """One detected inconsistency and the repair applied."""

    kind: Kind
    page_no: int
    action: Action
    parent_page: int | None = None
    slot: int | None = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debug aid
        where = f"page {self.page_no}"
        if self.parent_page is not None:
            where += f" (parent {self.parent_page}, slot {self.slot})"
        text = f"{self.kind.value} at {where}: {self.action.value}"
        if self.detail:
            text += f" [{self.detail}]"
        return text


@dataclass
class RepairLog:
    """Append-only log of repairs performed by one tree instance.

    When a tree attaches itself via :meth:`bind_owner`, every
    :meth:`add` also feeds the observability layer: a per-technique
    ``tree.repairs`` counter, a ``tree.repair.seconds`` latency histogram
    (when the caller timed the repair), and a ``repair`` trace event
    carrying the page and the sync token in force at repair time.
    """

    reports: list[DetectionReport] = field(default_factory=list)
    kind_label: str | None = None
    file_name: str | None = None
    token_source: Callable[[], int] | None = None
    _counters: dict[Kind, Counter] = field(default_factory=dict, repr=False)
    _histograms: dict[Kind, Histogram] = field(default_factory=dict,
                                               repr=False)

    def bind_owner(self, *, kind: str, file_name: str,
                   token_source: Callable[[], int] | None = None) -> None:
        """Attribute this log's repairs to one tree (technique + file)."""
        self.kind_label = kind
        self.file_name = file_name
        self.token_source = token_source

    def add(self, report: DetectionReport,
            duration: float | None = None) -> None:
        self.reports.append(report)
        if self.kind_label is None:
            return
        reg = get_registry()
        counter = self._counters.get(report.kind)
        if counter is None:
            counter = self._counters[report.kind] = reg.counter(
                "tree.repairs", kind=self.kind_label,
                repair=report.kind.value)
        counter.inc()
        if duration is not None:
            hist = self._histograms.get(report.kind)
            if hist is None:
                hist = self._histograms[report.kind] = reg.histogram(
                    "tree.repair.seconds", bounds=TIME_BUCKETS,
                    kind=self.kind_label, repair=report.kind.value)
            hist.observe(duration)
        token = self.token_source() if self.token_source else None
        get_trace().emit(
            "repair", file=self.file_name, page=report.page_no, token=token,
            duration=duration, kind=report.kind.value,
            action=report.action.value, technique=self.kind_label)

    def latency_summary(self) -> dict[str, dict]:
        """Per-repair-kind latency summaries recorded by this log."""
        return {kind.value: hist.summary()
                for kind, hist in self._histograms.items()}

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def count(self, kind: Kind) -> int:
        return sum(1 for r in self.reports if r.kind is kind)

    def clear(self) -> None:
        self.reports.clear()


#: The grade of each class of finding the validator walk reports.  An
#: ``error`` is damage no first-use check repairs; a ``warn`` is what a
#: crash may leave and a first-use check repairs, or the post-crash
#: relaxations allow (a stale pre-split image, a stale peer link); an
#: ``info`` finding is no damage.  ``check()`` and ``verify()`` raise on
#: the first warn or error.
SEVERITY = {
    "unreadable": "error",        # bad magic or page type: zeroed, garbage
    "reached-twice": "error",
    "level": "error",
    "order": "error",             # keys out of order on one page
    "chain-cycle": "error",
    "global-order": "error",      # keys out of order across leaves
    "duplicate-key": "error",
    "range": "warn",              # a key outside its promised range
    "entry-0": "warn",            # an entry-0 separator below its bounds
    "peer-token": "warn",
    "peer-asymmetric": "warn",
    "chain": "warn",              # chain differs from the in-order leaves
    "line-table": "warn",         # duplicate line-table offsets
    "backup": "info",             # reorg backup keys awaiting reclamation
}


class Finding(NamedTuple):
    """One thing a validator saw: its severity, the page, and the text
    ``check()`` raises for it (page-level texts name their page)."""

    severity: str
    page_no: int
    message: str

    def __str__(self) -> str:
        return f"[{self.severity:<5}] {self.message}"


class Findings(list):
    """Every :class:`Finding` of one validator walk, in walk order, and
    what the walk reached: ``pages`` (every page, unreadable ones too),
    ``leaves`` (in key order), ``internals`` and ``keys`` (counts)."""

    pages: set[int]
    leaves: list[int]
    internals: int = 0
    keys: int = 0
