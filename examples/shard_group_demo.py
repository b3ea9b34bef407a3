#!/usr/bin/env python3
"""A four-shard group through crash, serving and WAL replay.

Three phases, each on a fresh group of four 512 B-page shards: crash every
other shard mid-batch and recover them; four concurrent sessions through
one ``Server`` in group-commit mode; a logged group whose committed tail
crashes, recovered by partitioned redo.  They fill the shard, serving and
WAL-replay sections of the stats tool's report.

Run:    python examples/shard_group_demo.py
Stats:  python -m repro.tools.stats examples/shard_group_demo.py
"""

import threading

from repro import TID, CrashOnNthSync, RandomSubsetCrash
from repro.serve import Server
from repro.shard import (GroupSyncScheduler, RecoveryOrchestrator,
                         ShardedEngine, ShardWorkerPool)
from repro.wal import GroupLogicalLoggingTree
from repro.workload.generators import mixed_ops

KIND = "shadow"
N_SHARDS = 4
N_CLIENTS = 4
PAGE = 512
SEED = 13


def shard_phase(keys: int = 96) -> None:
    """Load a sharded index, crash half the shards mid-batch, recover
    them, re-verify every committed key."""
    group = ShardedEngine.create(N_SHARDS, page_size=PAGE, seed=SEED)
    tree = group.create_tree(KIND, "ix", codec="uint32")
    scheduler = GroupSyncScheduler(group, dirty_threshold=24)
    with ShardWorkerPool(tree, scheduler=scheduler) as pool:
        report = pool.run_batch(
            [("insert", k, TID(1, k % 100)) for k in range(keys)])
        if not report.ok:
            raise SystemExit(f"sharded load failed: {report.errors()[:3]}")
        scheduler.sync_group()
        # arm every other shard, then push uncommitted inserts at the
        # whole group: armed shards die at the next pressure/barrier sync
        for index in range(0, N_SHARDS, 2):
            group.shard(index).crash_policy = RandomSubsetCrash(
                p=1.0, seed=SEED * 5 + index)
        pool.run_batch(
            [("insert", keys + k, TID(2, k % 100)) for k in range(keys)])
        scheduler.sync_group()
    crashed = group.crashed_shards()
    group, recovery = RecoveryOrchestrator().recover(group, "ix")
    if not recovery.ok:
        raise SystemExit(
            f"shard recovery failed: {recovery.failed_shards()}")
    tree = group.open_tree("ix")
    for k in range(keys):
        if tree.lookup(k) is None:
            raise SystemExit(f"committed key {k} lost")
    print(f"shard: recovered {crashed}; all {keys} committed keys found")
    group.shutdown()


def serving_phase(keys: int = 400) -> None:
    """Concurrent sessions push a mixed read/update workload through one
    server in group-commit mode."""
    group = ShardedEngine.create(N_SHARDS, page_size=PAGE, seed=SEED)
    tree = group.create_tree(KIND, "ix", codec="uint32")
    for k in range(keys):
        tree.insert(k, TID(1, k % 100))
    group.sync_all()
    scheduler = GroupSyncScheduler(group)
    failures: list[str] = []
    with Server(group.open_tree("ix"), scheduler=scheduler) as server:
        def client(cid: int) -> None:
            try:
                session = server.session()
                ops = mixed_ops(keys // N_CLIENTS, keys,
                                seed=SEED * 17 + cid)
                for i, (op, key) in enumerate(ops):
                    if op == "read":
                        session.get(key)
                    else:
                        session.update(key, TID(7, key % 100))
                    if (i + 1) % 8 == 0:
                        session.commit()
                session.commit()
            except Exception as exc:
                # collected below and turned into one loud exit — a
                # client thread must not fail silently
                failures.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise SystemExit(f"serving demo failed: {failures[:3]}")
    print(f"serving: {scheduler.commit_windows} group-commit windows, "
          f"{scheduler.amortization:.2f} commits per window")


def wal_phase(keys: int = 96) -> None:
    """Log a committed load and a committed tail whose index syncs all
    crash; partitioned redo brings the tail back."""
    group = ShardedEngine.create(N_SHARDS, page_size=PAGE, seed=SEED)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind=KIND)
    wal.current_xid = 1
    for k in range(keys):
        wal.insert(2 * k, TID(1, k % 100))
    crashed = wal.commit()
    if crashed:
        raise SystemExit(f"wal demo load commit crashed shards {crashed}")
    wal.current_xid = 2
    for k in range(keys // 2):
        wal.insert(2 * k + 1, TID(7, k % 100))
    for index in range(N_SHARDS):
        group.shard(index).crash_policy = CrashOnNthSync(1, keep=0)
    wal.commit()

    group, recovery = RecoveryOrchestrator(wal=wal.log).recover(group, "ix")
    if not recovery.ok:
        raise SystemExit(
            f"wal demo recovery failed: {recovery.failed_shards()}")
    tree = group.open_tree("ix")
    for k in range(keys):
        if tree.lookup(2 * k) is None:
            raise SystemExit(f"wal demo: committed key {2 * k} lost")
    for k in range(keys // 2):
        if tree.lookup(2 * k + 1) is None:
            raise SystemExit(f"wal demo: tail key {2 * k + 1} lost")
    print(f"wal: all {keys + keys // 2} committed keys found after redo")
    group.shutdown()


def main() -> None:
    shard_phase()
    serving_phase()
    wal_phase()


if __name__ == "__main__":
    main()
