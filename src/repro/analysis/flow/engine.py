"""The worklist fixpoint engine over the protocol typestate lattices.

One pass per function computes everything R006, R007 and R011–R015
need.  The abstract domain is a bounded *set of path states* per CFG
node (disjunctive, so the engine is path-sensitive over the decisions
that matter), where a path state tracks:

* **pinned-frame facts** — ``(pin site, generation)`` keyed resources in
  ``pinned`` / ``released`` typestate, with the variable bindings (and
  derived views) that refer to them;
* **held latches** — (family, acquire line) for read/write latches and
  the split lock, plus the descent window: a latch released since the
  last acquire with no pin in between (R007);
* **dirty obligation** — the pending page mutations on this path and
  the first line of dirty evidence (if any);
* **boolean flags and nullability** — ``owned = True`` / ``hops += 1``
  style guards and ``entry is None`` checks, used to prune infeasible
  branches, which is
  what keeps the conditional-cleanup idioms in the repo from becoming
  false positives;
* **a witness trace** — the protocol events and branch decisions taken
  along the path, reported verbatim with each finding.

States are deduplicated on everything *except* the trace (first trace
wins), which keeps the fixpoint finite; per-node state counts are capped
and generations are folded, so termination does not depend on the shape
of the analysed code.

Every function is analysed with its exception edges: a statement that
can raise (see :func:`.cfg._can_raise`) sends its *pre-statement* state
to the innermost handler, plus any release-type events (unpin / latch
release / with-exit) from the raising statement — releases cannot
meaningfully fail, and dropping them would flag every canonical
``finally: unpin(buf)`` as a leak — and its ownership transfers: a
buffer handed to a call that keeps it (``path.append(PathEntry(buf))``)
is the callee's from the call on, whether or not the call returns.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from ..lint import iter_functions
from .cfg import build_cfg
from .events import Event, branch_shape, node_events
from .summaries import FileSummaries

__all__ = ["Finding", "FlowAnalysis"]

#: Per-node cap on distinct path states; overflow keeps the first N in
#: deterministic order (the analysis stays sound for the kept paths).
MAX_STATES = 24
#: Witness traces stop growing past this many steps.
MAX_TRACE = 40
#: Hard cap on node visits per function (worklist safety valve).
MAX_VISITS_FACTOR = 64


class Fact(NamedTuple):
    key: tuple[int, int]       # (pin line, generation)
    state: str                 # "pinned" | "released"
    var: str                   # the name it was first bound to
    release_line: int          # 0 while pinned
    maybe_none: bool
    scoped: bool               # with-bound: released by the with-exit


class PathState(NamedTuple):
    bindings: tuple[tuple[str, tuple[int, int]], ...]
    facts: tuple[Fact, ...]
    flags: tuple[tuple[str, bool], ...]
    latches: tuple[tuple[str, int], ...]
    #: the descent window (R007): 0 = closed, -1 = a latch acquired and
    #: nothing pinned since, N > 0 = that latch released at line N
    unlatched: int
    dirty_line: int            # 0 = no dirty evidence on this path yet
    muts: tuple[tuple[int, str], ...]
    trace: tuple[tuple[int, str], ...]

    def core(self) -> "PathState":
        return self._replace(trace=())


EMPTY = PathState((), (), (), (), 0, 0, (), ())


@dataclass(frozen=True)
class Finding:
    rule_id: str
    line: int
    col: int
    message: str
    witness: tuple[tuple[int, str], ...]


# ---------------------------------------------------------------------------
# state helpers (states are immutable; helpers return new ones)
# ---------------------------------------------------------------------------

def _get(pairs: tuple, key):
    for k, v in pairs:
        if k == key:
            return v
    return None


def _set(pairs: tuple, key, value) -> tuple:
    return tuple(sorted([(k, v) for k, v in pairs if k != key]
                        + [(key, value)]))


def _drop(pairs: tuple, key) -> tuple:
    return tuple((k, v) for k, v in pairs if k != key)


def _fact_for(state: PathState, var: str) -> Fact | None:
    key = _get(state.bindings, var)
    if key is None:
        return None
    for fact in state.facts:
        if fact.key == key:
            return fact
    return None


def _replace_fact(state: PathState, old: Fact, new: Fact | None) -> PathState:
    facts = tuple(f for f in state.facts if f.key != old.key)
    if new is not None:
        facts = tuple(sorted(facts + (new,)))
    bindings = state.bindings
    if new is None:
        bindings = tuple((n, k) for n, k in bindings if k != old.key)
    return state._replace(facts=facts, bindings=bindings)


def _trace(state: PathState, line: int, note: str) -> PathState:
    if len(state.trace) >= MAX_TRACE:
        return state
    return state._replace(trace=state.trace + ((line, note),))


# ---------------------------------------------------------------------------
# the per-file analysis
# ---------------------------------------------------------------------------

class FlowAnalysis:
    """Run the fixpoint over every function of one parsed file and
    collect findings for every flow rule.  Construct once per file; the
    flow rules share one instance through the FileContext cache.

    ``in_page_layer`` exempts the file from R012 (it *is* the byte
    layer); ``checks_notes`` scopes R015 to the packages that own
    decoded nodes."""

    def __init__(self, tree: ast.AST, *, in_page_layer: bool = False,
                 checks_notes: bool = True) -> None:
        self.summaries = FileSummaries(tree)
        self.in_page_layer = in_page_layer
        self.checks_notes = checks_notes
        self.findings: list[Finding] = []
        self._seen: set[tuple] = set()
        for fn in iter_functions(tree):
            self._analyse_fn(fn)

    # -- per-function ------------------------------------------------------

    def _analyse_fn(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cfg = build_cfg(fn)
        if cfg.too_big:
            return
        events = {nid: node_events(node, self.summaries)
                  for nid, node in cfg.nodes.items()}

        seed = _trace(EMPTY, fn.lineno, f"enter {fn.name}()")
        in_states: dict[int, dict[PathState, PathState]] = {
            nid: {} for nid in cfg.nodes}
        in_states[cfg.entry][seed.core()] = seed
        work: deque[int] = deque([cfg.entry])
        queued = {cfg.entry}
        visits = 0
        max_visits = MAX_VISITS_FACTOR * max(1, len(cfg.nodes))

        while work:
            nid = work.popleft()
            queued.discard(nid)
            visits += 1
            if visits > max_visits:
                break
            node = cfg.nodes[nid]
            for state in list(in_states[nid].values()):
                normal, exc = self._transfer(node, events[nid], state)
                if node.kind == "exit":
                    self._at_exit(normal, exceptional=False)
                    continue
                if node.kind == "raise":
                    self._at_exit(normal, exceptional=True)
                    continue
                for dst, kind in cfg.succs[nid]:
                    out = exc if kind == "exc" else normal
                    out = self._refine(node, kind, out)
                    if out is None:
                        continue
                    bucket = in_states[dst]
                    core = out.core()
                    if core in bucket:
                        continue
                    if len(bucket) >= MAX_STATES:
                        continue
                    bucket[core] = out
                    if dst not in queued:
                        queued.add(dst)
                        work.append(dst)

    # -- transfer ----------------------------------------------------------

    def _transfer(self, node, events: list[Event],
                  state: PathState) -> tuple[PathState, PathState]:
        exc_state = state
        for ev in events:
            # releases and ownership transfers still apply on the
            # exception edge
            if ev.op in ("unpin", "latch-rel", "escape"):
                exc_state = self._apply(ev, exc_state, report=False)
        if node.kind == "with-exit":
            for ev in events:
                exc_state = self._apply(ev, exc_state, report=False)
        normal = state
        for ev in events:
            normal = self._apply(ev, normal, report=True)
        exc_state = _trace(exc_state, node.line, "exception raised")
        return normal, exc_state

    def _apply(self, ev: Event, s: PathState, *, report: bool) -> PathState:
        op = ev.op
        if op == "use":
            if report:
                for var in ev.vars:
                    fact = _fact_for(s, var)
                    if fact is not None and fact.state == "released":
                        self._emit(
                            "R013", ev.line, ev.col,
                            f"'{var}' is used here but its frame was "
                            f"unpinned at line {fact.release_line} — the "
                            "pool may have evicted or recycled the page "
                            "under it",
                            _trace(s, ev.line, f"use of '{var}'").trace)
            return s
        if op == "pin":
            if report and s.unlatched > 0:
                self._emit(
                    "R007", s.unlatched, 0,
                    "parent latch released before the child's buffer is "
                    "pinned — the allocator may recycle the child in that "
                    "window (Section 3.6: pin, then unlatch)",
                    _trace(s, ev.line, "pin after the unlatch").trace)
            if s.unlatched:
                s = s._replace(unlatched=0)
            return self._apply_pin(ev, s) if ev.var else s
        if op == "unpin":
            for var in ev.vars:
                fact = _fact_for(s, var)
                if fact is not None and fact.state == "pinned":
                    s = _replace_fact(
                        s, fact,
                        fact._replace(state="released",
                                      release_line=ev.line))
                    s = _trace(s, ev.line, f"unpin '{var}'")
            return s
        if op == "dirty":
            if s.dirty_line == 0:
                s = s._replace(dirty_line=ev.line)
            return _trace(s, ev.line, f"dirty evidence: {ev.note}")
        if op == "mutate":
            if any(line == ev.line for line, _ in s.muts):
                return s
            s = s._replace(muts=tuple(sorted(
                s.muts + ((ev.line, ev.note),))))
            return _trace(s, ev.line, f"mutation: {ev.note}")
        if op == "cachenote":
            if report and s.dirty_line == 0 and self.checks_notes:
                self._emit(
                    "R015", ev.line, ev.col,
                    f"{ev.note}() restamps the cache on a path with no "
                    "prior dirty-mark — the entry captures the "
                    "pre-mutation version and later reads serve stale "
                    "keys",
                    _trace(s, ev.line, f"{ev.note}() before any "
                           "dirty-mark").trace)
            return _trace(s, ev.line, f"cache {ev.note}()")
        if op == "latch-acq":
            if report:
                self._check_acquire(ev, s)
            if ev.family != "split":
                s = s._replace(unlatched=-1)
            held = [(f, ln) for f, ln in s.latches if f == ev.family]
            if len(held) >= 4:
                return s
            s = s._replace(latches=tuple(sorted(
                s.latches + ((ev.family, ev.line),))))
            return _trace(s, ev.line, f"acquire {ev.family} latch")
        if op == "latch-rel":
            return self._apply_latch_rel(ev, s)
        if op == "split":
            if report and any(f == "write" for f, _ in s.latches) \
                    and not any(f == "split" for f, _ in s.latches):
                self._emit(
                    "R006", ev.line, ev.col,
                    f"{ev.note} while a write latch is held but the "
                    "split lock is not — the deadlock-freedom argument of "
                    "Section 3.6 needs the (split, write) pair taken in "
                    "that order",
                    _trace(s, ev.line, f"{ev.note}").trace)
            return s
        if op == "block":
            if report and any(f == "read" for f, _ in s.latches):
                self._emit(
                    "R014", ev.line, ev.col,
                    f"{ev.note}() may block while a read latch is held "
                    "on this path — a stalled reader blocks every "
                    "writer queued behind its latch (Section 3.6)",
                    _trace(s, ev.line, f"blocking {ev.note}()").trace)
            return s
        if op == "escape":
            for var in ev.vars:
                fact = _fact_for(s, var)
                if fact is not None and fact.state == "pinned":
                    s = _replace_fact(s, fact, None)
                    s = _trace(s, ev.line, f"'{var}' {ev.note}")
            return s
        if op == "alias":
            sources = ev.src.split("|")
            key = None
            for src in sources:
                key = _get(s.bindings, src)
                if key is not None:
                    break
            bindings = _drop(s.bindings, ev.var)
            if key is not None:
                bindings = _set(bindings, ev.var, key)
            return s._replace(bindings=bindings,
                              flags=_drop(s.flags, ev.var))
        if op == "rebind":
            bindings, flags = s.bindings, s.flags
            for var in ev.vars:
                bindings = _drop(bindings, var)
                flags = _drop(flags, var)
            return s._replace(bindings=bindings, flags=flags)
        if op == "flag":
            return s._replace(flags=_set(s.flags, ev.var, ev.value),
                              bindings=_drop(s.bindings, ev.var))
        return s

    def _check_acquire(self, ev: Event, s: PathState) -> None:
        """R006: the split lock is never taken under a write latch.
        R014: no acquisition under a read latch — a write or split
        acquire may block, and readers never couple."""
        if ev.family == "split" and any(f == "write" for f, _ in s.latches):
            self._emit(
                "R006", ev.line, ev.col,
                "split lock acquired while a write latch is held — "
                "Section 3.6 requires split-before-write; release the "
                "write latch first",
                _trace(s, ev.line, "split-lock acquire").trace)
        if not any(f == "read" for f, _ in s.latches):
            return
        if ev.family == "read":
            message = ("read latch acquired while one is already held — "
                       "readers never couple (Section 3.6: release one "
                       "latch before acquiring the next)")
        else:
            message = (f"{ev.family} acquisition may block while a read "
                       "latch is held on this path — a stalled reader "
                       "blocks every writer queued behind its latch "
                       "(Section 3.6)")
        self._emit("R014", ev.line, ev.col, message,
                   _trace(s, ev.line, f"{ev.family} acquire").trace)

    def _apply_pin(self, ev: Event, s: PathState) -> PathState:
        key = (ev.line, 0)
        shifted = (ev.line, 1)
        existing = next((f for f in s.facts if f.key == key), None)
        if existing is not None:
            # loop re-pin at the same site: fold the previous
            # generation away (dropping an older shifted one silently —
            # per-iteration leaks show up at the loop's exit instead)
            s = s._replace(
                facts=tuple(f for f in s.facts if f.key != shifted))
            s = s._replace(
                facts=tuple(sorted(
                    (f._replace(key=shifted) if f.key == key else f)
                    for f in s.facts)),
                bindings=tuple(sorted(
                    (n, shifted if k == key else k)
                    for n, k in s.bindings)))
        fact = Fact(key, "pinned", ev.var, 0, ev.maybe_none, ev.scoped)
        bindings = _set(s.bindings, ev.var, key)
        for name in ev.derived:
            bindings = _set(bindings, name, key)
        flags = s.flags
        for name in (ev.var,) + ev.derived:
            flags = _drop(flags, name)
        s = s._replace(facts=tuple(sorted(s.facts + (fact,))),
                       bindings=bindings, flags=flags)
        return _trace(s, ev.line, f"pin '{ev.var}'")

    def _apply_latch_rel(self, ev: Event, s: PathState) -> PathState:
        latches = list(s.latches)
        if ev.family == "split":
            for i in range(len(latches) - 1, -1, -1):
                if latches[i][0] == "split":
                    del latches[i]
                    break
        elif ev.rel_all:
            latches = [lv for lv in latches if lv[0] == "split"]
        else:
            # a plain latches.release(page): drop the most recent
            # read/write acquisition
            for i in range(len(latches) - 1, -1, -1):
                if latches[i][0] in ("read", "write", "latch"):
                    del latches[i]
                    break
        if s.unlatched == -1 and ev.family == "latch" and not ev.rel_all:
            s = s._replace(unlatched=ev.line)
        if list(s.latches) == latches:
            return s
        s = s._replace(latches=tuple(latches))
        return _trace(s, ev.line, "release latch")

    # -- branch refinement -------------------------------------------------

    def _refine(self, node, kind: str,
                s: PathState) -> PathState | None:
        if node.kind not in ("branch", "loop") \
                or kind not in ("true", "false") or node.test is None:
            return s
        shape = branch_shape(node.test)
        if shape is None:
            return _trace(s, node.line,
                          f"condition {kind} at line {node.line}")
        test_kind, var, inverted = shape
        taken_true = (kind == "true") != inverted
        if test_kind == "truth":
            known = _get(s.flags, var)
            if known is not None and known != taken_true:
                return None  # infeasible path
            s = s._replace(flags=_set(s.flags, var, taken_true))
            return _trace(s, node.line,
                          f"'{var}' is {taken_true} here")
        # isnone: taken_true means "var is None" after inversion fix-up
        fact = _fact_for(s, var)
        if fact is not None:
            if taken_true:
                if not fact.maybe_none:
                    # a definitely-pinned frame cannot be None; but only
                    # prune when we are sure, else keep the path
                    return None
                s = _replace_fact(s, fact, None)
                return _trace(s, node.line, f"'{var}' is None here")
            if fact.maybe_none:
                s = _replace_fact(s, fact,
                                  fact._replace(maybe_none=False))
            return _trace(s, node.line, f"'{var}' is not None here")
        return _trace(s, node.line,
                      f"condition {kind} at line {node.line}")

    # -- exits -------------------------------------------------------------

    def _at_exit(self, s: PathState, *, exceptional: bool) -> None:
        where = "an exception edge" if exceptional else "a return path"
        for fact in s.facts:
            if fact.state != "pinned" or fact.scoped:
                continue
            self._emit(
                "R011", fact.key[0], 0,
                f"'{fact.var}' is pinned at line {fact.key[0]} but "
                f"{where} leaves the function without unpinning it — "
                "the frame can never be evicted and the freelist's "
                "pinned-page guard is silently disabled",
                _trace(s, fact.key[0],
                       "exit with the pin still held").trace)
        if not exceptional and not self.in_page_layer:
            if s.dirty_line == 0:
                for line, what in s.muts:
                    self._emit(
                        "R012", line, 0,
                        f"{what} mutates a frame but this path reaches "
                        "the function exit with no dirty evidence — the "
                        "commit-time sync will skip the frame and the "
                        "update is lost on crash",
                        _trace(s, line, "exit with no dirty-mark on "
                               "this path").trace)
        for family, line in s.latches:
            self._emit(
                "R014", line, 0,
                f"{family} latch acquired at line {line} is still held "
                f"when {where} leaves the function — every later "
                "acquirer deadlocks behind it",
                _trace(s, line, "exit with the latch still held").trace)

    # -- findings ----------------------------------------------------------

    def _emit(self, rule_id: str, line: int, col: int, message: str,
              witness: tuple[tuple[int, str], ...]) -> None:
        key = (rule_id, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(rule_id, line, col, message, witness))

