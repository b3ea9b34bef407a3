#!/usr/bin/env python3
"""Crash scenarios for the offline verifier to judge.

Builds one engine holding two index files, or a sharded group, crashes
it mid-load (unless ``--no-crash``), restarts it and drives the
first-use repairs, and leaves the result as the global ``engine`` or
``group``: the one ``python -m repro.tools.fsck`` verifies after running
this script.  Error-severity findings therefore mean unrepaired damage,
not just a fresh crash.

Run:    python -m repro.tools.fsck examples/fsck_scenarios.py
        python -m repro.tools.fsck --json examples/fsck_scenarios.py \\
            --shards 4 --kind reorg
"""

import argparse

from repro import TREE_CLASSES, CrashError, StorageEngine
from repro.core import open_tree
from repro.core.keys import TID
from repro.shard import RecoveryOrchestrator, ShardedEngine
from repro.storage import RandomSubsetCrash
from repro.storage.engine import EngineDeadError


def build_single(kind: str, keys: int, page_size: int, seed: int,
                 crash: bool):
    """One engine, two index files; optionally crash mid-load, then
    restart and touch every key."""
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "demo", codec="uint32")
    side = TREE_CLASSES[kind].create(engine, "demo2", codec="uint32")
    for i in range(keys):
        tree.insert(i, TID(1, i % 100))
        if i % 3 == 0:
            side.insert(i, TID(2, i % 100))
        if (i + 1) % 25 == 0:
            try:
                engine.sync()
            except CrashError:
                break
        if crash and i == int(keys * 0.66):
            engine.crash_policy = RandomSubsetCrash(p=1.0, seed=seed + 3)
    if crash and not engine.dead:
        try:
            engine.sync(RandomSubsetCrash(p=1.0, seed=seed + 3))
        except CrashError:
            pass
    if engine.dead:
        engine = StorageEngine.reopen_after_crash(engine)
        for name in engine.file_names():
            recovered = open_tree(engine, name)
            for i in range(keys):
                recovered.lookup(i)
            list(recovered.range_scan())
        engine.sync()
    return engine


def build_group(kind: str, n_shards: int, keys: int, page_size: int,
                seed: int, crash: bool):
    """A shard group; optionally crash every other shard, then recover
    them through the orchestrator."""
    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    tree = group.create_tree(kind, "demo", codec="uint32")
    for i in range(keys):
        tree.insert(i, TID(1, i % 100))
        if (i + 1) % 64 == 0:
            group.sync_all()
    group.sync_all()
    if crash:
        for index in range(0, n_shards, 2):
            victim = group.shard(index)
            victim.crash_policy = RandomSubsetCrash(p=1.0, seed=seed + index)
            extra = keys + index * 97
            for j in range(64):
                try:
                    tree.insert(extra + j, TID(3, j))
                except CrashError:
                    break
                except EngineDeadError:
                    continue  # routed to an already-crashed sibling
            if not victim.dead:
                try:
                    victim.sync()
                except CrashError:
                    pass
        group, _report = RecoveryOrchestrator().recover(group, "demo")
    return group


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Build a crash scenario for the offline verifier.")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="build an N-shard group instead of a single "
                             "engine (default: 1)")
    parser.add_argument("--kind", default="shadow",
                        choices=sorted(TREE_CLASSES),
                        help="tree kind to build (default: shadow)")
    parser.add_argument("--keys", type=int, default=300,
                        help="keys to load before crashing (default: 300)")
    parser.add_argument("--page-size", type=int, default=512)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the crash: a cleanly built index "
                             "(expect zero findings)")
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    return args


if __name__ == "__main__":
    args = parse_args()
    crash = not args.no_crash
    if args.shards == 1:
        engine = build_single(args.kind, args.keys, args.page_size,
                              args.seed, crash)
        print(f"built engine: files {engine.file_names()}")
    else:
        group = build_group(args.kind, args.shards, args.keys,
                            args.page_size, args.seed, crash)
        print(f"built group: {args.shards} shards")
