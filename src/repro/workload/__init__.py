"""Workload generation, timed running, and report formatting."""

from .generators import (
    ascending,
    descending,
    duplicate_values,
    interleaved_batches,
    mixed_ops,
    random_permutation,
    skewed,
    uniform_lookups,
    zipfian,
    zipfian_keys,
)
from .report import (
    WISCONSIN_AM_FRACTION,
    format_table1,
    normalized_cell,
    wisconsin_context,
)
from .runner import (
    RunResult,
    Series,
    build_tree,
    repeat,
    run_lookups,
)

__all__ = [
    "RunResult",
    "Series",
    "WISCONSIN_AM_FRACTION",
    "ascending",
    "build_tree",
    "descending",
    "duplicate_values",
    "format_table1",
    "interleaved_batches",
    "mixed_ops",
    "normalized_cell",
    "random_permutation",
    "repeat",
    "run_lookups",
    "skewed",
    "uniform_lookups",
    "wisconsin_context",
    "zipfian",
    "zipfian_keys",
]
