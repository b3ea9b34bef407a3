"""Counted passes: exact Python call counts per operation.

``cProfile`` distorts time but counts calls exactly, so a fixed slice of
operations profiled on one thread gives numbers that repeat bit for bit
with the same seed (the runner pins ``PYTHONHASHSEED``).  They compare
two versions of one program; they say nothing about waiting.
"""

from __future__ import annotations

import cProfile
import pstats

#: operations per counted slice
SLICE = 2000


def count_calls(fn) -> tuple[int, int]:
    """Run ``fn()`` under the profiler; returns ``(calls, unpacks)``:
    every Python-visible call made, and how many of them were
    ``struct`` ``unpack_from`` (a page field decoded from bytes)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    calls = unpacks = 0
    for (_file, _line, name), row in pstats.Stats(profile).stats.items():
        calls += row[1]
        if "unpack_from" in name:
            unpacks += row[1]
    return calls, unpacks


def counted_lookups(handle, keys) -> dict[str, float]:
    """Calls and unpacks per ``lookup`` over *keys* (``SLICE`` of them)."""
    lookup = handle.lookup

    def run():
        for key in keys:
            lookup(key)
    calls, unpacks = count_calls(run)
    return {"core.calls_per_lookup": calls / len(keys),
            "core.unpacks_per_lookup": unpacks / len(keys)}


def counted_writes(handle, pairs) -> dict[str, float]:
    """Calls per ``insert`` of the fresh ascending *pairs*, then per
    ``delete`` of the same keys — the index ends with the entries it
    started with."""
    insert, delete = handle.insert, handle.delete

    def inserts():
        for key, tid in pairs:
            insert(key, tid)

    def deletes():
        for key, _ in pairs:
            delete(key)
    calls, unpacks = count_calls(inserts)
    return {"core.calls_per_insert": calls / len(pairs),
            "core.unpacks_per_insert": unpacks / len(pairs),
            "core.calls_per_delete": count_calls(deletes)[0] / len(pairs)}
