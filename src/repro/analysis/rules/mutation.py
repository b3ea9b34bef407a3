"""R002 — page bytes are mutated only through the page layer.

R002 keeps raw ``buf.data`` pokes inside ``storage/page.py`` and
``core/nodeview.py``: the paper's intra-page recovery (3.3.1) reasons about
the exact order header bytes hit the page image, so scattering byte stores
across tree code would make that ordering unauditable.  (Whether a
mutation is followed by a dirty-mark is a question about paths: flow
rule R012.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..flow.summaries import in_page_layer, is_data_attr, is_data_subscript
from ..lint import FileContext, Rule, Violation, callee_name


class DirectDataMutationRule(Rule):
    rule_id = "R002"
    summary = "direct buf.data mutation outside the page layer"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if in_page_layer(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if is_data_subscript(target):
                        yield self.violation(
                            ctx, node,
                            "raw store into .data — page bytes are mutated "
                            "only via storage/page.py or core/nodeview.py",
                        )
            elif isinstance(node, ast.AugAssign) \
                    and is_data_subscript(node.target):
                yield self.violation(
                    ctx, node,
                    "raw augmented store into .data — use the page layer",
                )
            elif isinstance(node, ast.Call):
                name = callee_name(node)
                if name == "pack_into" and node.args \
                        and is_data_attr(node.args[0]):
                    yield self.violation(
                        ctx, node,
                        "pack_into(buf.data, ...) bypasses the page layer — "
                        "use a NodeView mutator (e.g. overwrite_region)",
                    )
                elif isinstance(node.func, ast.Attribute) \
                        and is_data_attr(node.func.value) \
                        and node.func.attr in {"extend", "append", "clear",
                                               "insert", "pop", "remove"}:
                    yield self.violation(
                        ctx, node,
                        f".data.{node.func.attr}() mutates page bytes "
                        "outside the page layer",
                    )
