"""Whole-package concurrency model for the thread-topology analyzer.

The pattern and flow rules are per-file and per-function; the thread
rules (R016–R020) need to see *across* the files of one
package, because the thing they check — which thread touches which
attribute under which lock — is a property of the module topology:
``ShardWorkerPool`` spawns the owner threads in ``workers.py`` but the
state they mutate lives in ``heal.py`` and ``scheduler.py``.

:class:`PackageModel` therefore reads every ``.py`` sibling of the file
under lint from the lint run's :class:`~repro.analysis.lint.SourceIndex`
(the files under lint are already parsed there; a sibling outside the
run is parsed once into it) and extracts the facts the role/lockset
analysis consumes:

* **classes and their attributes** — every name a class declares via
  ``self.x = …``, ``self.x: T``, class-level assignment or ``__slots__``;
* **a small type lattice** — package classes plus the concurrency
  primitives (``Thread``/``Queue``/``Event``/``Lock``/``Condition``/
  ``Future``/``Executor``), inferred from annotations, constructor
  calls, container element types and ``for``-loop/``with`` targets;
* **per-method attribute accesses** with the lexical **lockset** held at
  each access (``with lock:`` nesting; lock identities normalized so
  ``self._locks[i]`` and ``self._locks[j]`` are one per-shard family);
* **call edges** resolved through receiver types, with a guarded
  unique-method-name fallback for untyped handles (``self.heal.step``);
* **spawn sites** — ``threading.Thread(target=…)``, ``executor.submit``,
  ``Future.add_done_callback`` — with the thread-role name each implies
  and the storage root its handle lands in (for the R018 join check);
* **blocking calls** (typed ``Queue.get`` / ``Thread.join`` /
  ``Future.result`` / ``Event.wait`` / ``Condition.wait``, ``sleep``,
  simulated I/O) with the lockset held around them.

Everything here is *facts*; the verdicts live in
:mod:`repro.analysis.threads.engine`.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from ..lint import SourceIndex

__all__ = [
    "Type",
    "AttrAccess",
    "BlockingCall",
    "CallSite",
    "SpawnSite",
    "PrimitiveOp",
    "MethodInfo",
    "ClassInfo",
    "PackageModel",
    "package_model",
]


# ---------------------------------------------------------------------------
# the tiny type lattice
# ---------------------------------------------------------------------------

#: external types the analyzer knows how to classify
_PRIMS = ("Thread", "Queue", "Event", "Lock", "Condition", "Future",
          "Executor")

#: constructor spellings -> primitive type
_CTOR_TYPES = {
    "Thread": "Thread",
    "Queue": "Queue",
    "LifoQueue": "Queue",
    "PriorityQueue": "Queue",
    "SimpleQueue": "Queue",
    "Event": "Event",
    "Lock": "Lock",
    "RLock": "Lock",
    "Semaphore": "Lock",
    "BoundedSemaphore": "Lock",
    "Condition": "Condition",
    "ThreadPoolExecutor": "Executor",
    "ProcessPoolExecutor": "Executor",
}

#: method names too generic for the unique-name call-graph fallback —
#: resolving `x.get()` to some package class's `get` would be guessing
_COMMON_METHODS = frozenset({
    "get", "put", "set", "wait", "join", "result", "start", "run",
    "append", "extend", "pop", "update", "clear", "remove", "discard",
    "add", "items", "values", "keys", "sort", "copy", "close", "open",
    "read", "write", "encode", "decode", "check", "sync", "insert",
    "delete", "lookup", "emit", "inc", "observe", "step", "submit",
    "done", "error", "send", "shutdown", "acquire", "release",
})

#: container mutators — a call like `self.d.pop(k)` writes the container
_CONTAINER_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "remove", "discard",
    "clear", "update", "setdefault", "add",
})

#: callee names treated as (simulated) blocking I/O regardless of type
_IO_BLOCKING = frozenset({"sleep", "sync", "fsync"})

#: base names assumed to be Event handles when the receiver is untyped —
#: lets `done.set()` on an Event unpacked from a queue-item tuple keep
#: its handoff identity (paired with the typed `done.wait()` source side)
_EVENTISH_NAMES = frozenset({"done", "event", "ev", "ready", "finished"})


@dataclass(frozen=True)
class Type:
    """A resolved type: a package class name or one of the primitive
    concurrency types, optionally a container with an element type."""

    name: str
    elem: "Type | None" = None   # list/set elements, dict *values*

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}[{self.elem}]" if self.elem else self.name


# ---------------------------------------------------------------------------
# extracted facts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttrAccess:
    """One read/write of a package-class attribute inside one method."""

    cls: str                 # owning class of the attribute
    attr: str
    kind: str                # "read" | "write"
    method: str              # qualname of the accessing method
    file: str                # basename of the file the access is in
    line: int
    col: int
    lockset: frozenset[str]  # normalized lock names lexically held
    in_init: bool            # write inside the owning class's __init__


@dataclass(frozen=True)
class BlockingCall:
    """A call that may block the current thread."""

    method: str
    file: str
    line: int
    col: int
    desc: str                # e.g. "Queue.get()" / "Thread.join()"
    lockset: frozenset[str]
    receiver: str | None     # normalized receiver, for the Condition
                             # self-lock exemption


@dataclass(frozen=True)
class CallSite:
    """One resolved package-internal call edge."""

    caller: str              # qualname
    callee: str              # qualname
    file: str
    line: int
    lockset: frozenset[str] = frozenset()   # locks held at the call
    in_while: bool = False   # lexically inside a while loop (R020)


@dataclass(frozen=True)
class SpawnSite:
    """A thread/future creation point."""

    kind: str                # "thread" | "future" | "callback"
    method: str              # qualname of the spawning method
    file: str
    line: int
    col: int
    target: str | None       # resolved qualname the new thread runs
    role: str                # thread-role name the spawn implies
    root: str | None         # where the handle is stored (None = dropped)
    escapes: bool            # handle passed to an unresolved call


@dataclass(frozen=True)
class PrimitiveOp:
    """A happens-before relevant primitive operation (put/get/set/wait/
    start/join/submit/result), keyed so matching ends pair up."""

    kind: str                # "put"|"get"|"set"|"wait"|"start"|"join"|
                             # "submit"|"result"
    key: str                 # normalized identity of the primitive
    method: str
    file: str
    line: int


@dataclass
class MethodInfo:
    """Everything the analysis knows about one function/method."""

    qualname: str
    cls: str | None
    name: str
    file: str                # basename
    path: Path               # resolved absolute path
    line: int
    node: ast.AST = field(repr=False, default=None)
    accesses: list[AttrAccess] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    prim_ops: list[PrimitiveOp] = field(default_factory=list)
    consumed_roots: set[str] = field(default_factory=set)
    escaped_roots: set[str] = field(default_factory=set)
    instantiates: set[str] = field(default_factory=set)  # package classes
    cond_waits: list[tuple[int, int, bool, str]] = field(
        default_factory=list)  # (line, col, in_while, receiver)
    check_then_act: list[dict] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One package class: declared attributes, their types, methods."""

    name: str
    file: str
    line: int
    attrs: set[str] = field(default_factory=set)
    attr_types: dict[str, Type] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    #: attr -> canonical attr for the same underlying lock:
    #: `self._cond = Condition(self._mutex)` makes _mutex and _cond one
    #: lock, so locksets must not treat them as two
    lock_aliases: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

class PackageModel:
    """The merged model of every parseable ``.py`` file in one directory."""

    def __init__(self, directory: Path, index: SourceIndex):
        self.directory = directory
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, MethodInfo] = {}   # module-level defs
        self.methods: dict[str, MethodInfo] = {}     # every qualname
        self._method_name_index: dict[str, list[str]] = {}
        # a broken sibling must not kill the analysis: it is skipped
        self._modules = [(path.resolve(), tree)
                         for path in sorted(directory.glob("*.py"))
                         if (tree := index.tree(path)) is not None]
        self.files = [path for path, _ in self._modules]
        self._index_declarations()
        self._extract_facts()
        self.hb_edges = self._happens_before()

    # -- phase 1: classes, attributes, method index ---------------------

    def _index_declarations(self) -> None:
        for path, tree in self._modules:
            base = path.name
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    info = self.classes.setdefault(
                        node.name, ClassInfo(node.name, base, node.lineno))
                    self._index_class(info, node, path, base)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    mi = MethodInfo(node.name, None, node.name, base, path,
                                    node.lineno, node)
                    self.functions[node.name] = mi
                    self.methods[node.name] = mi
        for qual, mi in self.methods.items():
            self._method_name_index.setdefault(mi.name, []).append(qual)

    def _index_class(self, info: ClassInfo, node: ast.ClassDef,
                     path: Path, base: str) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__slots__":
                            info.attrs |= _slot_names(stmt.value)
                        else:
                            info.attrs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                info.attrs.add(stmt.target.id)
                t = parse_annotation(stmt.annotation)
                if t is not None:
                    info.attr_types.setdefault(stmt.target.id, t)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{info.name}.{stmt.name}"
                mi = MethodInfo(qual, info.name, stmt.name, base, path,
                                stmt.lineno, stmt)
                info.methods[stmt.name] = mi
                self.methods[qual] = mi
                self._scan_self_attrs(info, stmt)

    def _scan_self_attrs(self, info: ClassInfo, fn: ast.AST) -> None:
        """Collect `self.x = …` / `self.x: T = …` declarations (and any
        constructor-call types they pin down)."""
        for node in ast.walk(fn):
            targets: list[tuple[ast.expr, ast.expr | None,
                                ast.expr | None]] = []
            if isinstance(node, ast.Assign):
                targets = [(t, None, node.value) for t in node.targets]
            elif isinstance(node, ast.AnnAssign):
                targets = [(node.target, node.annotation, node.value)]
            for target, annotation, value in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                info.attrs.add(target.attr)
                t = parse_annotation(annotation) if annotation is not None \
                    else self._literal_type(value)
                if t is not None:
                    info.attr_types.setdefault(target.attr, t)
                if isinstance(value, ast.Call) and \
                        _ctor_name(value) == "Condition" and value.args:
                    arg = value.args[0]
                    if isinstance(arg, ast.Attribute) and \
                            isinstance(arg.value, ast.Name) and \
                            arg.value.id == "self":
                        info.lock_aliases[arg.attr] = target.attr

    def _literal_type(self, value: ast.expr | None) -> Type | None:
        """Type of an initializer expression that needs no local env:
        constructor calls and comprehensions over them."""
        if value is None:
            return None
        if isinstance(value, ast.Call):
            name = _ctor_name(value)
            if name in _CTOR_TYPES:
                return Type(_CTOR_TYPES[name])
            if name in self.classes:
                return Type(name)
        if isinstance(value, (ast.ListComp, ast.SetComp)):
            elem = self._literal_type(value.elt)
            if elem is not None:
                return Type("list", elem)
        if isinstance(value, ast.DictComp):
            elem = self._literal_type(value.value)
            if elem is not None:
                return Type("dict", elem)
        if isinstance(value, (ast.List, ast.Set)) and value.elts:
            elem = self._literal_type(value.elts[0])
            if elem is not None:
                return Type("list", elem)
        return None

    # -- phase 2: per-method facts --------------------------------------

    def _extract_facts(self) -> None:
        for mi in self.methods.values():
            _MethodScanner(self, mi).scan()

    # -- phase 3: happens-before edges ----------------------------------

    def _happens_before(self) -> list[dict]:
        """Pair the source/sink halves of each handoff primitive: a
        ``put`` happens-before the ``get`` on the same queue family,
        ``set`` before ``wait``, ``start``/``submit`` before ``join``/
        ``result``.  Matching is by normalized primitive identity with a
        base-name fallback (handles that cross methods through an
        untyped payload, like the worker queue's Event tuples)."""
        _PAIRS = (("put", "get"), ("set", "wait"), ("start", "join"),
                  ("submit", "result"))
        ops: list[PrimitiveOp] = []
        for mi in self.methods.values():
            ops.extend(mi.prim_ops)
        edges: list[dict] = []
        for src_kind, dst_kind in _PAIRS:
            sources = [op for op in ops if op.kind == src_kind]
            sinks = [op for op in ops if op.kind == dst_kind]
            for src in sources:
                for dst in sinks:
                    if _keys_match(src.key, dst.key):
                        edges.append({
                            "kind": f"{src_kind}->{dst_kind}",
                            "key": src.key,
                            "src": (src.method, src.file, src.line),
                            "dst": (dst.method, dst.file, dst.line),
                        })
        # spawn completion: everything the spawned target did happens
        # before the join/result over its handle returns — this is the
        # edge that orders a worker's report-field writes before the
        # caller's post-join reads (start->join / submit->result above
        # only order the *launch* before the wait)
        consumers = [op for op in ops if op.kind in ("join", "result")]
        for mi in self.methods.values():
            for spawn in mi.spawns:
                if spawn.target is None or spawn.root is None:
                    continue
                want = "join" if spawn.kind == "thread" else "result"
                for op in consumers:
                    if op.kind == want and _root_of(op.key) == spawn.root:
                        edges.append({
                            "kind": f"{spawn.kind}-completion",
                            "key": spawn.root,
                            "src": (spawn.target, spawn.file, spawn.line),
                            "dst": (op.method, op.file, op.line),
                        })
        return edges

    # -- resolution helpers ---------------------------------------------

    def resolve_method(self, cls: str | None, name: str) -> str | None:
        """``cls.name`` if declared there; None otherwise."""
        if cls is not None and cls in self.classes and \
                name in self.classes[cls].methods:
            return f"{cls}.{name}"
        return None

    def resolve_unique(self, name: str) -> str | None:
        """The guarded unique-name fallback: resolve *name* only when
        exactly one package class declares it and the name is not a
        generic container/primitive method."""
        if name in _COMMON_METHODS:
            return None
        candidates = self._method_name_index.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def canonical_lock(self, origin: str | None) -> str | None:
        """Fold lock aliases: ``Cls._mutex`` -> ``Cls._cond`` when the
        class built its Condition around that mutex."""
        if origin is None or "." not in origin:
            return origin
        cls, _, attr = origin.partition(".")
        info = self.classes.get(cls)
        if info is not None:
            alias = info.lock_aliases.get(attr.split("[")[0])
            if alias is not None:
                return f"{cls}.{alias}"
        return origin

    def attr_declared(self, cls: str, attr: str) -> bool:
        info = self.classes.get(cls)
        return info is not None and attr in info.attrs

    def attr_type(self, cls: str, attr: str) -> Type | None:
        info = self.classes.get(cls)
        return info.attr_types.get(attr) if info else None


def _keys_match(a: str, b: str) -> bool:
    """Primitive identity match: exact normalized key, or equal base
    name when a handle crosses methods untyped (`done` in run_batch vs
    the unpacked `done` in _worker_loop)."""
    if a == b:
        return True
    return _base_name(a) == _base_name(b)


def _base_name(key: str) -> str:
    tail = key.split(".")[-1]
    return tail.split("[")[0]


def _slot_names(value: ast.expr) -> set[str]:
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return {e.value for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return set()


def _ctor_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def parse_annotation(node: ast.expr | None) -> Type | None:
    """A best-effort reading of a type annotation into the lattice."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        if node.id in _CTOR_TYPES:
            return Type(_CTOR_TYPES[node.id])
        return Type(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr in _CTOR_TYPES:
            return Type(_CTOR_TYPES[node.attr])
        return Type(node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = parse_annotation(node.left)
        if left is not None and left.name != "None":
            return left
        return parse_annotation(node.right)
    if isinstance(node, ast.Subscript):
        head = parse_annotation(node.value)
        if head is None:
            return None
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        if head.name == "Optional" and args:
            return parse_annotation(args[0])
        if head.name in ("list", "List", "set", "Set", "frozenset",
                         "tuple", "Tuple", "Sequence", "Iterable",
                         "Iterator") and args:
            return Type("list", parse_annotation(args[0]))
        if head.name in ("dict", "Dict", "Mapping", "MutableMapping") \
                and len(args) == 2:
            return Type("dict", parse_annotation(args[1]))
        return head
    return None


# ---------------------------------------------------------------------------
# the per-method scanner
# ---------------------------------------------------------------------------

class _MethodScanner:
    """One walk over a method body collecting accesses, locksets, calls,
    spawns, blocking calls and primitive handoff operations."""

    def __init__(self, model: PackageModel, mi: MethodInfo):
        self.model = model
        self.mi = mi
        self.env: dict[str, Type] = {}
        #: local name -> normalized origin of the value (for lock/queue
        #: identity and R018 root tracking)
        self.origin: dict[str, str] = {}
        #: local name -> method qualnames it aliases
        #: (`step = self._fast_step if fast else self._slow_step`)
        self.fn_aliases: dict[str, list[str]] = {}
        self.locks: list[str] = []
        self.while_depth = 0
        if mi.cls is not None:
            self.env["self"] = Type(mi.cls)
        self._seed_params()

    # -- environment -----------------------------------------------------

    def _seed_params(self) -> None:
        node = self.mi.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        args = list(node.args.posonlyargs) + list(node.args.args) + \
            list(node.args.kwonlyargs)
        for arg in args:
            t = parse_annotation(arg.annotation)
            if t is not None and (t.name in self.model.classes
                                  or t.name in _PRIMS
                                  or t.elem is not None):
                self.env[arg.arg] = t
            # untyped lock-ish params still carry identity by name
            if t is None and _lockish_name(arg.arg):
                self.env[arg.arg] = Type("Lock")
                self.origin[arg.arg] = arg.arg

    def expr_type(self, node: ast.expr | None) -> Type | None:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            recv = self.expr_type(node.value)
            if recv is not None:
                return self.model.attr_type(recv.name, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            container = self.expr_type(node.value)
            if container is not None and container.elem is not None:
                return container.elem
            return None
        if isinstance(node, ast.Call):
            return self._call_type(node)
        if isinstance(node, ast.IfExp):
            return self.expr_type(node.body) or self.expr_type(node.orelse)
        if isinstance(node, ast.Await):
            return self.expr_type(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp)):
            elem = self.expr_type(node.elt)
            if elem is not None:
                return Type("list", elem)
        if isinstance(node, ast.DictComp):
            elem = self.expr_type(node.value)
            if elem is not None:
                return Type("dict", elem)
        return self.model._literal_type(node)

    def _call_type(self, call: ast.Call) -> Type | None:
        name = _ctor_name(call)
        if name in _CTOR_TYPES:
            return Type(_CTOR_TYPES[name])
        if name in self.model.classes:
            return Type(name)
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = self.expr_type(func.value)
            if recv is not None:
                if func.attr == "submit" and recv.name == "Executor":
                    return Type("Future")
                if recv.name == "dict" and func.attr in ("get", "pop",
                                                         "setdefault"):
                    return recv.elem
                if func.attr == "values" and recv.name == "dict":
                    return Type("list", recv.elem)
                if func.attr == "copy":
                    return recv
        return None

    def expr_origin(self, node: ast.expr) -> str | None:
        """Normalized identity of an expression: ``Cls.attr`` for
        ``self.attr``, ``Cls.attr[·]`` for its elements, the bare name
        for locals (with origin chasing), None for anything else."""
        if isinstance(node, ast.Name):
            return self.origin.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self" \
                    and self.mi.cls is not None:
                return f"{self.mi.cls}.{node.attr}"
            base = self.expr_origin(node.value)
            return f"{base}.{node.attr}" if base else None
        if isinstance(node, ast.Subscript):
            base = self.expr_origin(node.value)
            return f"{base}[·]" if base else None
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute) \
                and node.func.attr in ("items", "values", "keys", "copy"):
            return self.expr_origin(node.func.value)
        return None

    # -- the walk --------------------------------------------------------

    def scan(self) -> None:
        node = self.mi.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        for stmt in node.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return      # nested scopes are their own methods' problem
        handler = getattr(self, f"_visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
            return
        self._generic(node)

    def _generic(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._handle_call(node)
        elif isinstance(node, ast.Attribute):
            self._handle_attribute(node)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            self._bind_comprehension(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- statements that shape the environment ---------------------------

    def _visit_Assign(self, node: ast.Assign) -> None:
        before = len(self.mi.spawns)
        self._visit(node.value)
        t = self.expr_type(node.value)
        origin = self.expr_origin(node.value)
        for target in node.targets:
            self._bind_target(target, t, origin, node.value)
            self._visit_store_target(target)
        self._patch_spawn_roots(before, node.targets)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        before = len(self.mi.spawns)
        if node.value is not None:
            self._visit(node.value)
        t = parse_annotation(node.annotation) or \
            (self.expr_type(node.value) if node.value else None)
        origin = self.expr_origin(node.value) if node.value else None
        self._bind_target(node.target, t, origin,
                          node.value if node.value is not None else None)
        self._visit_store_target(node.target)
        self._patch_spawn_roots(before, [node.target])

    def _patch_spawn_roots(self, before: int, targets: list) -> None:
        """A spawn whose handle lands in an assignment target is rooted
        there; unassigned spawns keep root=None (dropped handle)."""
        if len(self.mi.spawns) <= before:
            return
        root: str | None = None
        for target in targets:
            if isinstance(target, (ast.Name, ast.Attribute, ast.Subscript)):
                got = self.expr_origin(target)
                if got is not None:
                    root = _root_of(got)
                    break
        if root is None:
            return
        for i in range(before, len(self.mi.spawns)):
            if self.mi.spawns[i].root is None:
                self.mi.spawns[i] = dataclasses.replace(
                    self.mi.spawns[i], root=root)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit(node.value)
        target = node.target
        if isinstance(target, ast.Attribute):
            self._record_attr(target, "write")
            self._record_attr(target, "read")
        elif isinstance(target, ast.Subscript):
            self._visit_store_target(target)

    def _visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._visit_store_target(target)

    def _visit_For(self, node: ast.For) -> None:
        self._visit(node.iter)
        t = self._iter_elem_type(node.iter)
        origin = self.expr_origin(node.iter)
        self._bind_target(node.target, t, f"{origin}[·]" if origin else None,
                          None)
        for stmt in node.body:
            self._visit(stmt)
        for stmt in node.orelse:
            self._visit(stmt)

    def _iter_elem_type(self, it: ast.expr) -> Type | None:
        t = self.expr_type(it)
        if t is not None and t.elem is not None:
            return t.elem
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            recv = self.expr_type(it.func.value)
            if recv is not None and recv.name == "dict":
                if it.func.attr == "values":
                    return recv.elem
                if it.func.attr == "items":
                    return Type("tuple2", recv.elem)
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name):
            if it.func.id in ("sorted", "list", "tuple", "reversed") \
                    and it.args:
                return self._iter_elem_type(it.args[0])
            if it.func.id == "enumerate" and it.args:
                return Type("tuple2", self._iter_elem_type(it.args[0]))
        return None

    def _bind_target(self, target: ast.expr, t: Type | None,
                     origin: str | None, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            if t is not None:
                self.env[target.id] = t
            elif _lockish_name(target.id) and target.id not in self.env:
                self.env[target.id] = Type("Lock")
            if t is not None and t.name == "Executor" and \
                    isinstance(value, ast.Call):
                prefix = _const_prefix(self._kwarg(
                    value, "thread_name_prefix"))
                origin = f"executor:{prefix or 'executor'}"
            if origin is not None:
                self.origin[target.id] = origin
            if t is None and _lockish_name(target.id):
                self.origin.setdefault(target.id, target.id)
            if isinstance(value, (ast.IfExp, ast.Attribute)):
                refs = [r for r in self._method_refs(value)
                        if r is not None]
                if refs:
                    self.fn_aliases[target.id] = refs
        elif isinstance(target, (ast.Tuple, ast.List)):
            # `for index, s in d.items()` — the last element gets the
            # dict's value type (and the container's element origin);
            # anything fancier stays untyped
            elts = target.elts
            if t is not None and t.name == "tuple2" and len(elts) == 2 \
                    and isinstance(elts[1], ast.Name):
                if t.elem is not None:
                    self.env[elts[1].id] = t.elem
                if origin is not None:
                    self.origin[elts[1].id] = origin
            for e in elts:
                if isinstance(e, ast.Name) and _lockish_name(e.id):
                    self.env.setdefault(e.id, Type("Lock"))
                    self.origin.setdefault(e.id, e.id)

    def _visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            self._visit(item.context_expr)
            t = self.expr_type(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, t,
                                  self.expr_origin(item.context_expr),
                                  item.context_expr)
            key = self._lock_key(item.context_expr, t)
            if key is not None:
                self.locks.append(key)
                pushed += 1
        for stmt in node.body:
            self._visit(stmt)
        for _ in range(pushed):
            self.locks.pop()

    def _lock_key(self, expr: ast.expr, t: Type | None) -> str | None:
        if t is not None and t.name in ("Lock", "Condition"):
            return self.model.canonical_lock(
                self.expr_origin(expr)) or "<lock>"
        origin = self.expr_origin(expr)
        if origin is not None and _lockish_name(origin):
            return self.model.canonical_lock(origin)
        return None

    def _visit_While(self, node: ast.While) -> None:
        self._visit(node.test)
        self._check_then_act(node, node.test, node.body)
        self.while_depth += 1
        for stmt in node.body:
            self._visit(stmt)
        self.while_depth -= 1
        for stmt in node.orelse:
            self._visit(stmt)

    def _visit_If(self, node: ast.If) -> None:
        self._visit(node.test)
        self._check_then_act(node, node.test, node.body)
        for stmt in node.body:
            self._visit(stmt)
        for stmt in node.orelse:
            self._visit(stmt)

    def _bind_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._visit(gen.iter)
            t = self._iter_elem_type(gen.iter)
            self._bind_target(gen.target, t, None, None)
        if isinstance(node, ast.DictComp):
            self._visit(node.key)
            self._visit(node.value)
        elif isinstance(node, ast.GeneratorExp):
            self._visit(node.elt)
        else:
            self._visit(node.elt)

    # -- attribute accesses ----------------------------------------------

    def _visit_store_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            self._record_attr(target, "write")
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._record_attr(target.value, "write")
            self._visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._visit_store_target(e)

    def _handle_attribute(self, node: ast.Attribute) -> None:
        self._record_attr(node, "read")

    def _record_attr(self, node: ast.Attribute, kind: str) -> None:
        recv = self.expr_type(node.value)
        if recv is None or recv.name not in self.model.classes:
            return
        if not self.model.attr_declared(recv.name, node.attr):
            return
        in_init = (kind == "write" and self.mi.name == "__init__"
                   and self.mi.cls == recv.name)
        self.mi.accesses.append(AttrAccess(
            cls=recv.name, attr=node.attr, kind=kind,
            method=self.mi.qualname, file=self.mi.file,
            line=node.lineno, col=node.col_offset,
            lockset=frozenset(self.locks), in_init=in_init))

    # -- calls ------------------------------------------------------------

    def _handle_call(self, call: ast.Call) -> None:
        name = _ctor_name(call)
        func = call.func
        recv_t: Type | None = None
        recv_origin: str | None = None
        if isinstance(func, ast.Attribute):
            recv_t = self.expr_type(func.value)
            recv_origin = self.expr_origin(func.value)
            # a mutator call on a container-typed attribute writes it
            if isinstance(func.value, ast.Attribute) and \
                    name in _CONTAINER_MUTATORS:
                inner = self.expr_type(func.value.value)
                if inner is not None and inner.name in self.model.classes \
                        and self.model.attr_declared(inner.name, func.value.attr):
                    t = self.model.attr_type(inner.name, func.value.attr)
                    if t is None or t.name in ("dict", "list", "set"):
                        self._record_attr(func.value, "write")
            # appending a spawned handle into a container re-roots it
            # there (`self._threads.append(thread)` — the join check
            # then looks for a join over that container)
            if name in ("append", "add") and len(call.args) == 1 and \
                    isinstance(call.args[0], ast.Name):
                arg_root = self.origin.get(call.args[0].id,
                                           call.args[0].id)
                container = self.expr_origin(func.value)
                if container is not None:
                    new_root = _root_of(container)
                    for i, spawn in enumerate(self.mi.spawns):
                        if spawn.root == arg_root:
                            self.mi.spawns[i] = dataclasses.replace(
                                spawn, root=new_root)
                    # the handle's primitive identity moves with it:
                    # `thread.start(); self._threads.append(thread)`
                    # must pair with the join over self._threads
                    for i, op in enumerate(self.mi.prim_ops):
                        if op.key == arg_root:
                            self.mi.prim_ops[i] = dataclasses.replace(
                                op, key=f"{new_root}[·]")
        self._spawn_or_prim(call, name, recv_t, recv_origin)
        self._blocking(call, name, recv_t, recv_origin)
        self._call_edge(call, name, recv_t)

    def _spawn_or_prim(self, call: ast.Call, name: str | None,
                       recv_t: Type | None, recv_origin: str | None) -> None:
        mi = self.mi
        if name == "Thread" and self._call_type(call) is not None:
            target = self._kwarg(call, "target")
            role = self._thread_role(call, target)
            mi.spawns.append(SpawnSite(
                "thread", mi.qualname, mi.file, call.lineno,
                call.col_offset, self._method_ref(target), role,
                root=None, escapes=False))
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr == "submit" and recv_t is not None and \
                recv_t.name == "Executor":
            fn = call.args[0] if call.args else None
            role = self._executor_role(func.value)
            for target in self._method_refs(fn):
                mi.spawns.append(SpawnSite(
                    "future", mi.qualname, mi.file, call.lineno,
                    call.col_offset, target, role, root=None,
                    escapes=False))
            mi.prim_ops.append(PrimitiveOp(
                "submit", recv_origin or "<executor>", mi.qualname,
                mi.file, call.lineno))
            return
        if attr == "add_done_callback" and self._is_type(recv_t, "Future"):
            fn = call.args[0] if call.args else None
            for target in self._method_refs(fn):
                mi.spawns.append(SpawnSite(
                    "callback", mi.qualname, mi.file, call.lineno,
                    call.col_offset, target, "callback", root=None,
                    escapes=False))
            mi.consumed_roots.add(recv_origin or "<future>")
            return
        key = recv_origin or "<anon>"
        if attr in ("put", "put_nowait") and self._is_type(recv_t, "Queue"):
            mi.prim_ops.append(PrimitiveOp("put", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr in ("get", "get_nowait") and self._is_type(recv_t, "Queue"):
            mi.prim_ops.append(PrimitiveOp("get", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr == "set" and self._is_type(recv_t, "Event"):
            mi.prim_ops.append(PrimitiveOp("set", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr == "set" and recv_t is None and not call.args and \
                _base_name(key) in _EVENTISH_NAMES:
            # an untyped `done.set()` — handles that crossed methods
            # through an untyped payload (queue item tuples) keep their
            # handoff identity by name
            mi.prim_ops.append(PrimitiveOp("set", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr == "wait" and self._is_type(recv_t, "Event", "Condition"):
            mi.prim_ops.append(PrimitiveOp("wait", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr == "start" and self._is_type(recv_t, "Thread"):
            mi.prim_ops.append(PrimitiveOp("start", key, mi.qualname,
                                           mi.file, call.lineno))
        elif attr == "join" and self._is_type(recv_t, "Thread"):
            mi.prim_ops.append(PrimitiveOp("join", key, mi.qualname,
                                           mi.file, call.lineno))
            mi.consumed_roots.add(_root_of(key))
        elif attr == "result" and self._is_type(recv_t, "Future"):
            mi.prim_ops.append(PrimitiveOp("result", key, mi.qualname,
                                           mi.file, call.lineno))
            mi.consumed_roots.add(_root_of(key))

    def _blocking(self, call: ast.Call, name: str | None,
                  recv_t: Type | None, recv_origin: str | None) -> None:
        desc: str | None = None
        if recv_t is not None:
            if name in ("get",) and recv_t.name == "Queue" and \
                    not _nonblocking_get(call):
                desc = "Queue.get()"
            elif name == "join" and recv_t.name == "Thread":
                desc = "Thread.join()"
            elif name == "result" and recv_t.name == "Future":
                desc = "Future.result()"
            elif name == "wait" and recv_t.name in ("Event", "Condition"):
                desc = f"{recv_t.name}.wait()"
            elif name == "acquire" and recv_t.name in ("Lock", "Condition"):
                desc = "Lock.acquire()"
        if desc is None and name in _IO_BLOCKING:
            desc = f"{name}() (simulated I/O)"
        if desc is None:
            return
        self.mi.blocking.append(BlockingCall(
            method=self.mi.qualname, file=self.mi.file, line=call.lineno,
            col=call.col_offset, desc=desc,
            lockset=frozenset(self.locks),
            receiver=self.model.canonical_lock(recv_origin)))
        if name == "wait" and recv_t is not None and \
                recv_t.name == "Condition":
            self.mi.cond_waits.append(
                (call.lineno, call.col_offset, self.while_depth > 0,
                 recv_origin or "<condition>"))

    def _call_edge(self, call: ast.Call, name: str | None,
                   recv_t: Type | None) -> None:
        callee: str | None = None
        func = call.func
        if isinstance(func, ast.Attribute):
            if recv_t is not None and recv_t.name in self.model.classes:
                callee = self.model.resolve_method(recv_t.name, func.attr)
            if callee is None and recv_t is None:
                callee = self.model.resolve_unique(func.attr)
        elif isinstance(func, ast.Name):
            if func.id in self.model.functions:
                callee = func.id
            elif func.id in self.model.classes:
                self.mi.instantiates.add(func.id)
                callee = self.model.resolve_method(func.id, "__init__")
        if callee is not None:
            self.mi.calls.append(CallSite(self.mi.qualname, callee,
                                          self.mi.file, call.lineno,
                                          frozenset(self.locks),
                                          self.while_depth > 0))
        else:
            # the handle escapes through calls the model can't see —
            # be conservative about R018 for any root passed along
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                origin = self.expr_origin(arg) if isinstance(
                    arg, (ast.Name, ast.Attribute)) else None
                if origin is not None:
                    t = self.expr_type(arg)
                    if t is not None and t.name in ("Thread", "Future") or \
                            (t is not None and t.elem is not None and
                             t.elem.name in ("Thread", "Future")):
                        self.mi.escaped_roots.add(_root_of(origin))

    # -- R019: check-then-act --------------------------------------------

    def _check_then_act(self, node: ast.stmt, test: ast.expr,
                        body: list[ast.stmt]) -> None:
        reads = self._attr_reads_in(test)
        if not reads:
            return
        test_lockset = frozenset(self.locks)
        writes = self._attr_writes_under(body)
        for (cls, attr), read_line in reads.items():
            for (wcls, wattr), (wline, wlockset) in writes.items():
                if (cls, attr) != (wcls, wattr):
                    continue
                self.mi.check_then_act.append({
                    "cls": cls, "attr": attr,
                    "line": node.lineno, "col": node.col_offset,
                    "test_line": read_line, "write_line": wline,
                    "test_lockset": test_lockset,
                    "write_lockset": wlockset,
                    "method": self.mi.qualname, "file": self.mi.file,
                })

    def _attr_reads_in(self, test: ast.expr) -> dict:
        reads: dict[tuple[str, str], int] = {}
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute):
                recv = self.expr_type(node.value)
                if recv is not None and \
                        self.model.attr_declared(recv.name, node.attr):
                    reads.setdefault((recv.name, node.attr), node.lineno)
        return reads

    def _attr_writes_under(self, body: list[ast.stmt]) -> dict:
        """Container/attr writes anywhere in the governed branch, with
        the *additional* locks acquired between the test and the write
        (a write re-locked inside the branch is still non-atomic with
        the unlocked test, but the engine needs both locksets)."""
        writes: dict[tuple[str, str], tuple[int, frozenset]] = {}
        base = list(self.locks)

        def walk(stmts: list[ast.stmt], extra: list[str]) -> None:
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.With):
                        continue
                    target_attr = _written_attr(node)
                    if target_attr is not None:
                        recv_node, attr = target_attr
                        recv = self.expr_type(recv_node)
                        if recv is not None and self.model.attr_declared(
                                recv.name, attr):
                            writes.setdefault(
                                (recv.name, attr),
                                (node.lineno, frozenset(base + extra)))
                if isinstance(stmt, ast.With):
                    keys = []
                    for item in stmt.items:
                        key = self._lock_key(item.context_expr,
                                             self.expr_type(
                                                 item.context_expr))
                        if key is not None:
                            keys.append(key)
                    walk(stmt.body, extra + keys)
                else:
                    sub = [s for s in ast.iter_child_nodes(stmt)
                           if isinstance(s, ast.stmt)]
                    if sub:
                        walk(sub, extra)

        walk(body, [])
        return writes

    # -- small helpers ----------------------------------------------------

    def _is_type(self, t: Type | None, *names: str) -> bool:
        return t is not None and t.name in names

    def _kwarg(self, call: ast.Call, name: str) -> ast.expr | None:
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _method_ref(self, node: ast.expr | None) -> str | None:
        refs = self._method_refs(node)
        return refs[0] if refs else None

    def _method_refs(self, node: ast.expr | None) -> list[str | None]:
        """Qualnames a function reference can denote (IfExp yields both
        arms; unresolvable refs yield [None] so the spawn still counts)."""
        if node is None:
            return [None]
        if isinstance(node, ast.IfExp):
            return [r for arm in (node.body, node.orelse)
                    for r in self._method_refs(arm)]
        if isinstance(node, ast.Attribute):
            recv = self.expr_type(node.value)
            if recv is not None:
                resolved = self.model.resolve_method(recv.name, node.attr)
                if resolved is not None:
                    return [resolved]
            return [self.model.resolve_unique(node.attr)]
        if isinstance(node, ast.Name):
            if node.id in self.fn_aliases:
                return list(self.fn_aliases[node.id])
            if node.id in self.model.functions:
                return [node.id]
            t = self.env.get(node.id)
            if t is not None and t.name in self.model.classes:
                return [self.model.resolve_method(t.name, "__call__")]
            # a local alias like `recover_one = self._a if x else self._b`
            origin = self.origin.get(node.id)
            if origin is not None and origin in self.model.methods:
                return [origin]
        return [None]

    def _thread_role(self, call: ast.Call, target: ast.expr | None) -> str:
        name_kw = self._kwarg(call, "name")
        role = _const_prefix(name_kw)
        if role:
            return role
        ref = self._method_ref(target)
        return f"thread:{ref.split('.')[-1]}" if ref else "thread"

    def _executor_role(self, recv: ast.expr) -> str:
        """Role of futures submitted to an executor: its
        thread_name_prefix when the constructor is visible."""
        node = recv
        if isinstance(node, ast.Name):
            origin = self.origin.get(node.id)
            if origin is not None and origin.startswith("executor:"):
                return origin.split(":", 1)[1]
        if isinstance(node, ast.Call):
            prefix = _const_prefix(self._kwarg(node, "thread_name_prefix"))
            if prefix:
                return prefix
        return "executor"


def _written_attr(node: ast.AST) -> tuple[ast.expr, str] | None:
    """(receiver_expr, attr) when *node* writes a tracked attribute:
    subscript store/del, attr store, aug-assign, container mutator."""
    if isinstance(node, (ast.Assign,)):
        for target in node.targets:
            got = _target_attr(target)
            if got:
                return got
    elif isinstance(node, ast.AugAssign):
        return _target_attr(node.target)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            got = _target_attr(target)
            if got:
                return got
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _CONTAINER_MUTATORS and \
                isinstance(node.func.value, ast.Attribute):
            inner = node.func.value
            return (inner.value, inner.attr)
    return None


def _target_attr(target: ast.expr) -> tuple[ast.expr, str] | None:
    if isinstance(target, ast.Attribute):
        return (target.value, target.attr)
    if isinstance(target, ast.Subscript) and \
            isinstance(target.value, ast.Attribute):
        return (target.value.value, target.value.attr)
    return None


def _nonblocking_get(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "block" and isinstance(kw.value, ast.Constant) \
                and kw.value.value is False:
            return True
        if kw.arg == "timeout" and not (
                isinstance(kw.value, ast.Constant)
                and kw.value.value is None):
            return True
    return False


def _lockish_name(name: str) -> bool:
    low = name.lower()
    return "lock" in low or "mutex" in low


def _root_of(key: str) -> str:
    """Strip element selectors: a join over `ShardWorkerPool._threads[·]`
    consumes the `ShardWorkerPool._threads` root."""
    return key.split("[")[0]


def _const_prefix(node: ast.expr | None) -> str | None:
    """The constant prefix of a thread-name expression: a literal, or
    the leading constant parts of an f-string (`f"shard-worker-{i}"` →
    `shard-worker`)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rstrip("-_0123456789 ") or node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and \
                    isinstance(value.value, str):
                parts.append(value.value)
            else:
                break
        if parts:
            joined = "".join(parts).rstrip("-_ ")
            if joined:
                return joined
    return None


def package_model(path: Path) -> PackageModel:
    """The package model for the directory containing *path*."""
    return PackageModel(Path(path).resolve().parent, SourceIndex())
