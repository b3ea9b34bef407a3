"""AST-based lint framework for the storage-protocol coding rules.

The framework is deliberately small: a :class:`Rule` walks one parsed file
(:class:`FileContext`) and yields :class:`Violation` records.  One
catalogue (:func:`all_rules`) holds every rule: the single-statement
pattern rules (:mod:`repro.analysis.rules`), the path-sensitive flow
rules (:mod:`repro.analysis.flow`) and the whole-package thread rules
(:mod:`repro.analysis.threads`).  Each one encodes a discipline the
paper's recovery algorithm depends on, so a finding here is a
*recoverability* bug even when every functional test passes.  A lint
run parses each file once (:class:`SourceIndex`), and every rule reads
that one tree.

Suppression uses ``# lint: disable=RXXX`` pragmas:

* on a line with code, the pragma suppresses those rules for that line;
* on a standalone comment line, it suppresses those rules for the whole
  file (use sparingly, and say why in the surrounding comment).

Run it as ``python -m repro.tools.lint src/ [--format=text|json]``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

if TYPE_CHECKING:
    from .threads.engine import ThreadAnalysis

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Z][0-9]+(?:\s*,\s*[A-Z][0-9]+)*)")


@dataclass(frozen=True)
class Violation:
    """One rule finding, addressed the way compilers address diagnostics.

    ``witness`` is the concrete path the flow and thread rules report:
    an ordered ``(line, note)`` chain of the protocol events and branch
    decisions along which the violation happens.  Pattern rules leave it
    empty.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    witness: tuple[tuple[int, str], ...] = ()

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if not self.witness:
            return head
        steps = [f"{self.path}:{line} {note}" for line, note in self.witness]
        chain = "\n           -> ".join(steps)
        return f"{head}\n    witness: {chain}"

    def as_dict(self) -> dict:
        data = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.witness:
            data["witness"] = [{"line": line, "note": note}
                               for line, note in self.witness]
        return data


class SourceIndex:
    """Every module one lint run has parsed, keyed by resolved path.

    The files under lint are added as the run reads them; a sibling
    outside the run is parsed the first time a whole-package rule asks
    for it (:meth:`tree`), so no file is parsed twice.
    ``thread_analyses`` holds the run's one thread analysis per package
    directory.
    """

    def __init__(self) -> None:
        self.trees: dict[Path, ast.Module | None] = {}
        self.thread_analyses: dict[Path, ThreadAnalysis] = {}

    def tree(self, path: Path) -> ast.Module | None:
        """The module at *path*; None when it cannot be read or parsed."""
        key = path.resolve()
        if key not in self.trees:
            try:
                self.trees[key] = ast.parse(key.read_text(),
                                            filename=str(key))
            except (OSError, SyntaxError, ValueError):
                self.trees[key] = None
        return self.trees[key]


class FileContext:
    """A parsed source file plus its pragma tables.

    ``rel_path`` is the path as given on the command line (kept relative so
    output is stable across checkouts); ``file_disabled`` holds rules
    suppressed for the whole file, ``line_disabled`` maps line number to
    the rules suppressed on that line.  ``index`` is the run's
    :class:`SourceIndex` (a private one when the context stands alone).
    """

    def __init__(self, path: Path, rel_path: str, source: str,
                 index: SourceIndex | None = None):
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.index = SourceIndex() if index is None else index
        self.index.trees[path.resolve()] = self.tree
        self.file_disabled: set[str] = set()
        self.line_disabled: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(text)
            if not match:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            if text.lstrip().startswith("#"):
                self.file_disabled |= rules
            else:
                self.line_disabled.setdefault(lineno, set()).update(rules)

    def suppressed(self, violation: Violation) -> bool:
        if violation.rule_id in self.file_disabled:
            return True
        return violation.rule_id in self.line_disabled.get(violation.line, set())


class Rule:
    """Base class for one lint rule.

    Subclasses set ``rule_id`` / ``summary`` and implement :meth:`check`,
    yielding violations for one file.  ``violation`` is a convenience that
    stamps the file path and node location.
    """

    rule_id: ClassVar[str] = "R000"
    summary: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintReport:
    """Everything one lint run produced, ready for either output format."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        lines.extend(f"parse error: {err}" for err in self.parse_errors)
        summary = (
            f"{len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s) checked"
        )
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "violations": [v.as_dict() for v in self.violations],
                "files_checked": self.files_checked,
                "parse_errors": self.parse_errors,
                "ok": self.ok,
            },
            indent=2,
        )

    def render_sarif(self, rules: Iterable[Rule] | None = None) -> str:
        """SARIF 2.1.0, the format CI code-scanning ingests.  Witness
        steps become ``relatedLocations`` so the annotation shows the
        whole path, not just the anchor line."""
        catalogue = [
            {
                "id": rule.rule_id,
                "name": type(rule).__name__,
                "shortDescription": {"text": rule.summary},
            }
            for rule in (rules or [])
        ]
        results = []
        for v in self.violations:
            result: dict = {
                "ruleId": v.rule_id,
                "level": "error",
                "message": {"text": v.message},
                "locations": [_sarif_location(v.path, v.line, v.col)],
            }
            if v.witness:
                result["relatedLocations"] = [
                    {
                        **_sarif_location(v.path, line, 1),
                        "message": {"text": note},
                    }
                    for line, note in v.witness
                ]
            results.append(result)
        run: dict = {
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://github.com/repro/repro#storage-protocol-lint",
                    "rules": catalogue,
                }
            },
            "results": results,
            "invocations": [
                {
                    "executionSuccessful": not self.parse_errors,
                    "exitCode": 0 if self.ok else 1,
                }
            ],
        }
        return json.dumps(
            {
                "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
                "version": "2.1.0",
                "runs": [run],
            },
            indent=2,
        )


def _sarif_location(path: str, line: int, col: int) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": max(1, line),
                       "startColumn": max(1, col)},
        }
    }


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[tuple[Path, str]]:
    """Yield ``(path, display_path)`` for every ``.py`` file under *paths*."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            yield root, str(raw)
        elif root.is_dir():
            for path in sorted(root.rglob("*.py")):
                yield path, str(path)


def all_rules() -> list[Rule]:
    """One instance of every rule — pattern, flow and thread — in
    rule-id order."""
    from .flow import flow_rules
    from .rules import pattern_rules
    from .threads import threads_rules
    return sorted([*pattern_rules(), *flow_rules(), *threads_rules()],
                  key=lambda rule: rule.rule_id)


def lint_paths(paths: Iterable[str | Path],
               rules: Iterable[Rule] | None = None) -> LintReport:
    """Run *rules* (default: :func:`all_rules`) over every file in
    *paths*.  Every file is parsed before any rule runs, so a
    whole-package rule finds its siblings already in the index."""
    rules = all_rules() if rules is None else list(rules)
    report = LintReport()
    index = SourceIndex()
    contexts: list[FileContext] = []
    for path, display in iter_python_files(paths):
        try:
            contexts.append(FileContext(path, display, path.read_text(),
                                        index))
        except (OSError, SyntaxError, ValueError) as exc:
            index.trees[path.resolve()] = None
            report.parse_errors.append(f"{display}: {exc}")
    report.files_checked = len(contexts)
    for ctx in contexts:
        for rule in rules:
            for violation in rule.check(ctx):
                if not ctx.suppressed(violation):
                    report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return report


# ---------------------------------------------------------------------------
# shared AST helpers used by several rules
# ---------------------------------------------------------------------------

def callee_name(call: ast.Call) -> str | None:
    """The rightmost name of a call target: ``a.b.pin(...)`` -> ``pin``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_function_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk *fn* without descending into nested function/class scopes, so
    per-function rules do not blame one scope for another's code."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
