"""Command-line front end for the crash-safety lint.

Usage::

    PYTHONPATH=src python -m repro.tools.lint src/ [--format=text|json|sarif]

One run checks one catalogue: the single-statement pattern rules (R002,
R004, R005, R010), the path-sensitive flow rules (R006, R007,
R011–R015) and the whole-package thread-topology rules (R016–R020);
the latter two report a witness path with each finding.  ``--rules``
selects a subset.

Exit status: 0 when every checked file is clean, 1 when violations (or
parse failures) were found, 2 on usage errors.  Suppress individual
findings with ``# lint: disable=RXXX`` — trailing on a line for that
line, on a standalone comment line for the whole file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..analysis.lint import all_rules, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="AST lint for the storage-protocol coding rules: "
                    "pattern rules R002/R004/R005/R010, path-sensitive "
                    "flow rules R006/R007/R011-R015 and thread-topology "
                    "rules R016-R020.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif", action="store_true",
        help="shorthand for --format=sarif (CI code-scanning ingest)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="R002,R011",
        help="comma-separated subset of rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.rule_id in wanted]
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths, rules)
    out_format = "sarif" if args.sarif else args.format
    if out_format == "json":
        print(report.render_json())
    elif out_format == "sarif":
        print(report.render_sarif(rules))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
