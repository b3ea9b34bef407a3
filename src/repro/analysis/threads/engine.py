"""R016–R020 verdicts over the package concurrency model.

One :class:`ThreadAnalysis` per package and lint run (kept in the run's
:class:`~repro.analysis.lint.SourceIndex`); the per-file rules in
:mod:`.rules` filter the package-wide findings to the file under lint,
so linting a whole directory costs one model build and one analysis
pass no matter how many files it has.

The five checks:

* **R016** — a class attribute written outside ``__init__`` and
  accessed from ≥ 2 thread roles whose locksets share no common lock.
  Same-role accesses are serialized by the thread itself; ``__init__``
  writes are publication (they happen before the handle escapes).
* **R017** — a blocking call (typed ``Queue.get`` / ``Thread.join`` /
  ``Future.result`` / ``Event.wait`` / ``Condition.wait``, ``sleep``,
  simulated I/O ``sync``/``fsync``) while holding a lock, directly or
  through package-local calls.  ``Condition.wait`` is exempt for the
  condition's own lock (wait releases it), not for any other.
* **R018** — a thread/future handle that no path joins or consumes:
  dropped outright, or stored in a root (local, attribute, container)
  that nothing ever ``join()``s / ``result()``s / hands a callback.
* **R019** — check-then-act: a branch test reads a shared multi-role
  attribute and the governed body writes it, with no lock common to
  test and write — the classic racy ``if k not in d: d[k] = v``.
* **R020** — ``Condition.wait`` outside a ``while`` predicate loop;
  wakeups may be spurious or stale, so the predicate must be re-checked.

Every finding carries the thread role(s) involved and a witness path in
the flow-engine style: the spawn/API entry that establishes the role,
the call chain to the access, and the conflicting sites.  Witness steps
in sibling files keep the anchor file's line but name the real site in
the note (``workers.py:93 …``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..lint import FileContext
from .model import AttrAccess, PackageModel
from .roles import RoleMap, entry_methods, infer_roles

__all__ = ["ThreadFinding", "ThreadAnalysis", "analysis_for"]


@dataclass(frozen=True)
class ThreadFinding:
    rule_id: str
    path: Path              # resolved file the finding anchors in
    line: int
    col: int
    message: str
    witness: tuple[tuple[int, str], ...] = ()


def _fmt_locks(lockset: frozenset[str]) -> str:
    if not lockset:
        return "no lock"
    return "{" + ", ".join(sorted(lockset)) + "}"


class ThreadAnalysis:
    """All thread-topology findings for one package."""

    def __init__(self, model: PackageModel):
        self.model = model
        self.roles: RoleMap = infer_roles(model)
        self.findings: list[ThreadFinding] = []
        self._shared_attrs: dict[tuple[str, str], set[str]] = {}
        self._inherited = self._inherited_locksets()
        self._collect_shared()
        self._check_r016()
        self._check_r017()
        self._check_r018()
        self._check_r019()
        self._check_r020()
        self.findings.sort(key=lambda f: (str(f.path), f.line, f.col,
                                          f.rule_id))

    # -- shared-attribute census ----------------------------------------

    def _attr_accesses(self) -> dict[tuple[str, str], list[AttrAccess]]:
        grouped: dict[tuple[str, str], list[AttrAccess]] = {}
        for mi in self.model.methods.values():
            for access in mi.accesses:
                grouped.setdefault((access.cls, access.attr),
                                   []).append(access)
        return grouped

    def _collect_shared(self) -> None:
        """(cls, attr) -> union of roles that reach any access."""
        for key, accesses in self._attr_accesses().items():
            roles: set[str] = set()
            for access in accesses:
                roles |= self.roles.of(access.method)
            if len(roles) >= 2:
                self._shared_attrs[key] = roles

    # -- interprocedural lockset fixpoint --------------------------------

    def _inherited_locksets(self) -> dict[str, frozenset[str]]:
        """method -> locks guaranteed held on *every* entry to it.

        Locksets in the model are lexical; a helper like
        ``HealQueue._emit`` that is only ever called with the shard's
        entry lock held reads as "no lock" without this.  The fixpoint
        starts entries (spawn targets, public API — callable with no
        package lock held) at ∅ and everything else at ⊤, then shrinks
        each callee to the intersection over its call sites of the
        caller's inherited locks plus the locks lexically held at the
        site."""
        universe: set[str] = set()
        sites = []
        for mi in self.model.methods.values():
            for access in mi.accesses:
                universe |= access.lockset
            for call in mi.calls:
                universe |= call.lockset
                sites.append(call)
        top = frozenset(universe)
        entries = entry_methods(self.model)
        inherited = {
            name: frozenset() if name in entries else top
            for name in self.model.methods
        }
        changed = True
        while changed:
            changed = False
            for site in sites:
                current = inherited.get(site.callee)
                if current is None:
                    continue
                incoming = inherited.get(site.caller,
                                         frozenset()) | site.lockset
                merged = current & incoming
                if merged != current:
                    inherited[site.callee] = merged
                    changed = True
        return inherited

    def _eff(self, access: AttrAccess) -> frozenset[str]:
        """The access's effective lockset: lexical plus inherited."""
        return access.lockset | self._inherited.get(access.method,
                                                    frozenset())

    # -- witness assembly ------------------------------------------------

    def _role_steps(self, method: str, role: str, anchor_file: str,
                    anchor_line: int) -> list[tuple[int, str]]:
        steps = []
        for file, line, note in self.roles.chain(method, role, limit=3):
            steps.append((line if file == anchor_file else anchor_line,
                          note))
        return steps

    def _access_note(self, access: AttrAccess, role: str) -> str:
        return (f"{access.file}:{access.line} {access.method} "
                f"{'writes' if access.kind == 'write' else 'reads'} "
                f"{access.cls}.{access.attr} as role {role!r} holding "
                f"{_fmt_locks(self._eff(access))}")

    # -- R016 -------------------------------------------------------------

    def _check_r016(self) -> None:
        for (cls, attr), accesses in sorted(self._attr_accesses().items()):
            roles = self._shared_attrs.get((cls, attr))
            if roles is None:
                continue
            live = [a for a in accesses
                    if not a.in_init and self.roles.of(a.method)]
            writes = [a for a in live if a.kind == "write"]
            if not writes:
                continue
            common = None
            for access in live:
                common = self._eff(access) if common is None \
                    else common & self._eff(access)
            if common:
                continue
            if self._handoff_publishes(cls, writes, live):
                continue
            anchor = min(writes,
                         key=lambda a: (len(self._eff(a)), a.file, a.line))
            role_a = sorted(self.roles.of(anchor.method))[0]
            other = self._conflicting(live, anchor, role_a)
            if other is None:
                continue
            access_b, role_b = other
            witness = []
            witness += self._role_steps(anchor.method, role_a,
                                        anchor.file, anchor.line)
            witness.append((anchor.line, self._access_note(anchor, role_a)))
            witness += self._role_steps(access_b.method, role_b,
                                        anchor.file, anchor.line)
            witness.append((anchor.line if access_b.file != anchor.file
                            else access_b.line,
                            self._access_note(access_b, role_b)))
            self.findings.append(ThreadFinding(
                "R016", self._path_of(anchor.file), anchor.line,
                anchor.col,
                f"shared attribute {cls}.{attr} is accessed from roles "
                f"{sorted(roles)} with no common lock: {anchor.method} "
                f"writes it as {role_a!r} holding "
                f"{_fmt_locks(self._eff(anchor))}, {access_b.method} "
                f"{'writes' if access_b.kind == 'write' else 'reads'} it "
                f"as {role_b!r} holding {_fmt_locks(self._eff(access_b))}",
                tuple(witness)))

    def _handoff_publishes(self, cls: str, writes: list[AttrAccess],
                           live: list[AttrAccess]) -> bool:
        """True when the attribute is a handoff publication: every
        non-init write comes from exactly one role, and each cross-role
        read is ordered after those writes by a recorded happens-before
        edge (put->get, set->wait, thread/future completion) whose
        source carries the writer role.  The edge orders a read when it
        lands in the reading method itself (``wait_result`` waits, then
        reads), or when the object was *born on the writer thread* and
        only the handoff made it reachable at all (``OpResult`` built
        by the worker, read by the caller after ``done.wait()``)."""
        writer_roles: set[str] = set()
        for access in writes:
            writer_roles |= self.roles.of(access.method)
        if len(writer_roles) != 1:
            return False
        writer = next(iter(writer_roles))
        # "born on the writer thread": the writer role instantiates
        # this class, so the instances it writes only become reachable
        # to other roles through the handoff itself.  (A caller-side
        # instantiation — e.g. the failed-report fallback — makes an
        # instance that never crosses threads, so it does not defeat
        # ownership.)
        owned = writer in self._creation_roles(cls)
        covering = [edge for edge in self.model.hb_edges
                    if writer in self.roles.of(edge["src"][0])]
        for access in live:
            for role in self.roles.of(access.method) - writer_roles:
                ordered = any(
                    role in self.roles.of(edge["dst"][0]) and
                    (owned or edge["dst"][0] == access.method)
                    for edge in covering)
                if not ordered:
                    return False
        return True

    def _creation_roles(self, cls: str) -> set[str]:
        """Roles of every method that instantiates *cls*."""
        roles: set[str] = set()
        for mi in self.model.methods.values():
            if cls in mi.instantiates:
                roles |= self.roles.of(mi.qualname)
        return roles

    def _conflicting(self, live: list[AttrAccess], anchor: AttrAccess,
                     role_a: str):
        """The best conflicting access: another role, disjoint lockset,
        preferring a different method/file for a readable witness."""
        best: tuple[AttrAccess, str] | None = None
        for access in live:
            for role in sorted(self.roles.of(access.method)):
                if role == role_a:
                    continue
                if self._eff(access) & self._eff(anchor):
                    continue
                candidate = (access, role)
                if best is None:
                    best = candidate
                elif access.method != anchor.method and \
                        best[0].method == anchor.method:
                    best = candidate
        return best

    # -- R017 -------------------------------------------------------------

    # blocking primitives that first *release* the lock they name: the
    # Condition-style drop-and-reacquire handoff.  Holding that same
    # lock at the call is the pattern working as designed, not a stall.
    _RELEASES_OWN = ("Condition.wait()", "Lock.acquire()")

    def _may_block(self) -> dict[str, tuple[str, str, int, str | None,
                                            bool]]:
        """method -> (desc, file, line, receiver, releases_own) of one
        reachable blocking call, via a package-local call-graph
        fixpoint.  ``receiver``/``releases_own`` travel with the chain
        so call-site checks can apply the drop-and-reacquire exemption
        transitively (a wait wrapper like ``LatchManager._wait``)."""
        blocked: dict[str, tuple[str, str, int, str | None, bool]] = {}
        for mi in self.model.methods.values():
            if mi.blocking:
                b = mi.blocking[0]
                blocked[mi.qualname] = (b.desc, b.file, b.line, b.receiver,
                                        b.desc in self._RELEASES_OWN)
        changed = True
        while changed:
            changed = False
            for mi in self.model.methods.values():
                if mi.qualname in blocked:
                    continue
                for call in mi.calls:
                    if call.callee in blocked:
                        desc, file, line, recv, rel = blocked[call.callee]
                        blocked[mi.qualname] = (
                            f"{desc} via {call.callee}", file, line,
                            recv, rel)
                        changed = True
                        break
        return blocked

    def _check_r017(self) -> None:
        blocked = self._may_block()
        for mi in self.model.methods.values():
            for b in mi.blocking:
                lockset = set(b.lockset)
                if b.desc in self._RELEASES_OWN and b.receiver in lockset:
                    lockset.discard(b.receiver)  # releases its own first
                if not lockset:
                    continue
                self._emit_r017(mi.qualname, b.file, b.line, b.col,
                                b.desc, frozenset(lockset), [])
            for call in mi.calls:
                if not call.lockset or call.callee not in blocked:
                    continue
                desc, bfile, bline, recv, releases = blocked[call.callee]
                lockset = set(call.lockset)
                if releases and recv in lockset:
                    lockset.discard(recv)
                if not lockset:
                    continue
                extra = [(call.line,
                          f"{bfile}:{bline} {call.callee} reaches "
                          f"blocking {desc}")]
                self._emit_r017(mi.qualname, call.file, call.line, 0,
                                f"{call.callee}() → {desc}",
                                frozenset(lockset), extra)

    def _emit_r017(self, method: str, file: str, line: int, col: int,
                   desc: str, lockset: frozenset[str],
                   extra: list[tuple[int, str]]) -> None:
        roles = sorted(self.roles.of(method)) or ["unreached"]
        witness = self._role_steps(method, roles[0], file, line)
        witness.append((line, f"{file}:{line} {method} blocks in {desc} "
                              f"holding {_fmt_locks(lockset)}"))
        witness.extend(extra)
        self.findings.append(ThreadFinding(
            "R017", self._path_of(file), line, col,
            f"{method} (role {roles[0]!r}) makes blocking call {desc} "
            f"while holding {_fmt_locks(lockset)} — a slow or stuck "
            f"wait stalls every thread contending for the lock",
            tuple(witness)))

    # -- R018 -------------------------------------------------------------

    def _check_r018(self) -> None:
        consumed_anywhere: set[str] = set()
        escaped_anywhere: set[str] = set()
        for mi in self.model.methods.values():
            consumed_anywhere |= mi.consumed_roots
            escaped_anywhere |= mi.escaped_roots
        for mi in self.model.methods.values():
            for spawn in mi.spawns:
                if spawn.kind == "callback":
                    continue   # a callback is itself the consumption
                root = spawn.root
                if root is None:
                    consumed = False
                elif "." in root:   # class-attribute root: any method
                    consumed = root in consumed_anywhere or \
                        root in escaped_anywhere
                else:               # local root: this method only
                    consumed = root in mi.consumed_roots or \
                        root in mi.escaped_roots
                if consumed:
                    continue
                noun = "thread" if spawn.kind == "thread" else "future"
                where = f"stored in {root}" if root else "handle dropped"
                roles = sorted(self.roles.of(spawn.method)) or \
                    ["unreached"]
                witness = self._role_steps(spawn.method, roles[0],
                                           spawn.file, spawn.line)
                witness.append((
                    spawn.line,
                    f"{spawn.file}:{spawn.line} {spawn.method} spawns "
                    f"{noun} (role {spawn.role!r}), {where}; no join/"
                    f"result/callback consumes it on any path"))
                self.findings.append(ThreadFinding(
                    "R018", self._path_of(spawn.file), spawn.line,
                    spawn.col,
                    f"{noun} spawned in {spawn.method} as role "
                    f"{spawn.role!r} is never joined or consumed "
                    f"({where}) — shutdown can strand it and its "
                    f"errors are silently dropped",
                    tuple(witness)))

    # -- R019 -------------------------------------------------------------

    def _check_r019(self) -> None:
        for mi in self.model.methods.values():
            for cta in mi.check_then_act:
                key = (cta["cls"], cta["attr"])
                roles = self._shared_attrs.get(key)
                if roles is None:
                    continue
                inh = self._inherited.get(mi.qualname, frozenset())
                if (cta["test_lockset"] | inh) & \
                        (cta["write_lockset"] | inh):
                    continue
                mroles = sorted(self.roles.of(mi.qualname)) or \
                    ["unreached"]
                witness = self._role_steps(mi.qualname, mroles[0],
                                           cta["file"], cta["line"])
                witness.append((
                    cta["test_line"],
                    f"{cta['file']}:{cta['test_line']} branch test reads "
                    f"{key[0]}.{key[1]} holding "
                    f"{_fmt_locks(cta['test_lockset'])}"))
                witness.append((
                    cta["write_line"],
                    f"{cta['file']}:{cta['write_line']} governed write to "
                    f"{key[0]}.{key[1]} holding "
                    f"{_fmt_locks(cta['write_lockset'])} — another role "
                    f"can interleave between test and write"))
                self.findings.append(ThreadFinding(
                    "R019", self._path_of(cta["file"]), cta["line"],
                    cta["col"],
                    f"non-atomic check-then-act on {key[0]}.{key[1]} in "
                    f"{mi.qualname} (role {mroles[0]!r}; attribute is "
                    f"shared by roles {sorted(roles)}): the test and the "
                    f"write hold no common lock",
                    tuple(witness)))

    # -- R020 -------------------------------------------------------------

    def _check_r020(self) -> None:
        entries = entry_methods(self.model)
        for mi in self.model.methods.values():
            wrapped = self._caller_loops(mi.qualname) and \
                mi.qualname not in entries
            for line, col, in_while, receiver in mi.cond_waits:
                if in_while or wrapped:
                    continue
                roles = sorted(self.roles.of(mi.qualname)) or \
                    ["unreached"]
                witness = self._role_steps(mi.qualname, roles[0],
                                           mi.file, line)
                witness.append((
                    line,
                    f"{mi.file}:{line} {mi.qualname} calls "
                    f"{receiver}.wait() with no enclosing while loop"))
                self.findings.append(ThreadFinding(
                    "R020", self._path_of(mi.file), line, col,
                    f"Condition.wait on {receiver} in {mi.qualname} "
                    f"(role {roles[0]!r}) is outside a predicate loop — "
                    f"spurious or stale wakeups proceed on a false "
                    f"predicate; use `while not pred: cond.wait()`",
                    tuple(witness)))

    def _caller_loops(self, method: str) -> bool:
        """True when *method* is a wait wrapper: every package-internal
        call to it sits inside a ``while``, so the predicate re-check
        the bare ``Condition.wait`` needs lives at the call sites
        (``acquire_read``'s ``while conflict: self._wait(...)``)."""
        sites = [call
                 for mi in self.model.methods.values()
                 for call in mi.calls if call.callee == method]
        return bool(sites) and all(call.in_while for call in sites)

    # -- plumbing ----------------------------------------------------------

    def _path_of(self, basename: str) -> Path:
        for path in self.model.files:
            if path.name == basename:
                return path
        return self.model.directory / basename


def analysis_for(ctx: FileContext) -> ThreadAnalysis:
    """The thread analysis of the package holding *ctx*'s file, built
    once per lint run."""
    directory = ctx.path.resolve().parent
    analyses = ctx.index.thread_analyses
    if directory not in analyses:
        analyses[directory] = ThreadAnalysis(PackageModel(directory,
                                                          ctx.index))
    return analyses[directory]
