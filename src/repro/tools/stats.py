"""Dump the observability registry: ``python -m repro.tools.stats``.

By default the tool runs a tiny built-in crash/recovery workload (a
miniature of ``examples/crash_recovery_demo.py``) against each requested
tree kind and then prints everything the instrumentation recorded:
counters, gauges, latency histograms, and the recovery-event trace.  It
is the quickest way to *see* the paper's machinery — splits advertising
pages, a crash dropping them, first-use repairs healing the damage — as
numbers rather than prose.

Usage::

    python -m repro.tools.stats                 # text dump
    python -m repro.tools.stats --json          # machine-readable
    python -m repro.tools.stats --watch         # per-phase diffs
    python -m repro.tools.stats --kinds shadow,reorg --keys 256

The ``--watch`` flag reports a snapshot *diff* after every workload
phase (build / crash / recover, per kind) instead of one final dump —
the same information a live dashboard would poll for.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core import TREE_CLASSES
from ..core.keys import TID
from ..core.nodeview import NodeView
from ..errors import CrashError
from ..obs import (
    diff_snapshots,
    get_registry,
    get_trace,
    render_text,
)
from ..storage import (
    CrashOnceKeepingPages,
    RandomSubsetCrash,
    StorageEngine,
    tokens_match,
)

DEFAULT_KINDS = ("shadow", "reorg", "hybrid")
_RECENT_EVENTS = 20


# ----------------------------------------------------------------------
# the built-in demo workload
# ----------------------------------------------------------------------

def _build(kind: str, keys: int, page_size: int, seed: int):
    """Build an index, commit *keys* keys, then leave a split in flight."""
    engine = StorageEngine.create(page_size=page_size, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(keys):
        tree.insert(i, TID(1, i % 100))
        if (i + 1) % 32 == 0:
            engine.sync()
    engine.sync()
    splits = tree.splits.value
    i = keys
    while tree.splits.value == splits:
        tree.insert(i, TID(1, i % 100))
        i += 1
    return engine, tree


def _fresh_pages(tree) -> dict[int, bool]:
    """page_no -> is_leaf for pages written in the crashed window."""
    token = tree.engine.sync_state.token()
    out = {}
    for page_no in range(1, tree.file.n_pages):
        buf = tree.file.pin(page_no)
        try:
            view = NodeView(buf.data, tree.page_size)
            if tokens_match(view.sync_token, token):
                out[page_no] = view.is_leaf
        finally:
            tree.file.unpin(buf)
    return out


def run_demo_workload(kind: str, *, keys: int = 96,
                      page_size: int = 512, seed: int = 13) -> None:
    """Crash an in-flight split under several policies, recovering and
    re-verifying every committed key after each.

    One deterministic keep-nothing crash, one keeping only the fresh
    leaves, then a few randomized subsets (the recovery campaign's
    policy): different surviving page subsets exercise different repair
    paths (rebuilt-from-prev, restored-backup, peer-path checks, ...).
    """
    policies = [lambda t: CrashOnceKeepingPages(set()),
                lambda t: CrashOnceKeepingPages(
                    {("ix", p) for p, leaf in _fresh_pages(t).items()
                     if leaf})]
    policies += [lambda t, i=i: RandomSubsetCrash(p=1.0,
                                                  seed=seed * 7 + i)
                 for i in range(3)]
    for make_policy in policies:
        engine, tree = _build(kind, keys, page_size, seed)
        try:
            engine.sync(make_policy(tree))
        except CrashError:
            pass
        engine2 = StorageEngine.reopen_after_crash(engine)
        tree2 = TREE_CLASSES[kind].open(engine2, "ix")
        for k in range(keys):
            if tree2.lookup(k) is None:  # pragma: no cover - guard
                raise SystemExit(f"{kind}: committed key {k} lost")
        tree2.insert(10_000 + keys, TID(9, 9))
        engine2.sync()


def run_sharded_demo_workload(kind: str, *, n_shards: int = 4,
                              keys: int = 192, page_size: int = 512,
                              seed: int = 13) -> None:
    """Group version of the demo: load a sharded index, crash half the
    shards mid-batch, recover them, re-verify every key.

    This is what fills the shard-labelled series — per-shard repair
    latency under ``shard.recovery.seconds[shard=i]``, crash counts,
    group sync windows — that ``--shards`` exists to show.
    """
    from ..shard import (GroupSyncScheduler, RecoveryOrchestrator,
                         ShardedEngine, ShardWorkerPool)

    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    tree = group.create_tree(kind, "ix", codec="uint32")
    scheduler = GroupSyncScheduler(group, dirty_threshold=24)
    with ShardWorkerPool(tree, scheduler=scheduler) as pool:
        report = pool.run_batch(
            [("insert", k, TID(1, k % 100)) for k in range(keys)])
        if not report.ok:  # pragma: no cover - guard
            raise SystemExit(f"{kind}: sharded load failed: "
                             f"{report.errors()[:3]}")
        scheduler.sync_group()
        # arm every other shard, then push uncommitted inserts at the
        # whole group: armed shards die at the next pressure/barrier sync
        for index in range(0, n_shards, 2):
            group.shard(index).crash_policy = RandomSubsetCrash(
                p=1.0, seed=seed * 5 + index)
        pool.run_batch(
            [("insert", keys + k, TID(2, k % 100)) for k in range(keys)])
        scheduler.sync_group()
    orchestrator = RecoveryOrchestrator()
    group, recovery = orchestrator.recover(group, "ix")
    if not recovery.ok:  # pragma: no cover - guard
        raise SystemExit(f"{kind}: shard recovery failed: "
                         f"{recovery.failed_shards()}")
    tree = group.open_tree("ix")
    for k in range(keys):
        if tree.lookup(k) is None:  # pragma: no cover - guard
            raise SystemExit(f"{kind}: committed key {k} lost")
    group.shutdown()


def run_serving_demo_workload(kind: str, *, n_clients: int = 4,
                              n_shards: int = 4, keys: int = 400,
                              page_size: int = 512,
                              seed: int = 13) -> None:
    """Serving-layer demo: *n_clients* concurrent sessions push a mixed
    read/update workload through one :class:`~repro.serve.Server` in
    group-commit mode.  Fills the ``serve.*`` metrics and the group
    window-occupancy histogram that ``--serving`` exists to show."""
    import threading

    from ..serve import Server
    from ..shard import GroupSyncScheduler, ShardedEngine
    from ..workload.generators import mixed_ops

    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    tree = group.create_tree(kind, "ix", codec="uint32")
    for k in range(keys):
        tree.insert(k, TID(1, k % 100))
    group.sync_all()
    scheduler = GroupSyncScheduler(group)
    failures: list[str] = []
    with Server(group.open_tree("ix"), scheduler=scheduler) as server:
        def client(cid: int) -> None:
            try:
                session = server.session()
                ops = mixed_ops(keys // n_clients, keys,
                                seed=seed * 17 + cid)
                for i, (op, key) in enumerate(ops):
                    if op == "read":
                        session.get(key)
                    else:
                        session.update(key, TID(7, key % 100))
                    if (i + 1) % 8 == 0:
                        session.commit()
                session.commit()
            except Exception as exc:  # lint: disable=R005
                # collected below and turned into one loud exit — a
                # daemon client must not kill the demo silently
                failures.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:  # pragma: no cover - guard
        raise SystemExit(f"{kind}: serving demo failed: {failures[:3]}")


def run_wal_demo_workload(*, n_shards: int = 4, keys: int = 240,
                          page_size: int = 512, seed: int = 13) -> None:
    """WAL-replay demo: a group logs through one stable log, commits a
    load phase (durably SYNC_MARKed), then a committed tail whose index
    syncs all crash keep-nothing; parallel partitioned replay recovers
    it.  Fills the ``wal.replay.*`` metrics and the ``wal_partition`` /
    ``wal_replay`` trace events that ``--wal`` exists to show."""
    from ..shard import RecoveryOrchestrator, ShardedEngine
    from ..storage import CrashOnNthSync
    from ..wal import GroupLogicalLoggingTree

    group = ShardedEngine.create(n_shards, page_size=page_size, seed=seed)
    wal = GroupLogicalLoggingTree.create(group, "ix", kind="shadow")
    wal.current_xid = 1
    for k in range(keys):
        wal.insert(2 * k, TID(1, k % 100))
    crashed = wal.commit()
    if crashed:  # pragma: no cover - guard
        raise SystemExit(f"wal demo load commit crashed shards {crashed}")
    wal.current_xid = 2
    for k in range(keys // 2):
        wal.insert(2 * k + 1, TID(7, k % 100))
    for index in range(n_shards):
        group.shard(index).crash_policy = CrashOnNthSync(1, keep=0)
    wal.commit()

    group, recovery = RecoveryOrchestrator(wal=wal.log).recover(group, "ix")
    if not recovery.ok:  # pragma: no cover - guard
        raise SystemExit(
            f"wal demo recovery failed: {recovery.failed_shards()}")
    tree = group.open_tree("ix")
    for k in range(keys):
        if tree.lookup(2 * k) is None:  # pragma: no cover - guard
            raise SystemExit(f"wal demo: committed key {2 * k} lost")
    for k in range(keys // 2):
        if tree.lookup(2 * k + 1) is None:  # pragma: no cover - guard
            raise SystemExit(f"wal demo: replayed tail key "
                             f"{2 * k + 1} lost")
    group.shutdown()


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fastpath_summary(snapshot: dict) -> dict | None:
    """Aggregate the ``fastpath.*`` counter series (which are labelled
    per tree) into campaign totals plus derived hit rates."""
    totals: dict[str, int] = {}
    for key, val in snapshot.get("counters", {}).items():
        if not key.startswith("fastpath."):
            continue
        base = key.split("[", 1)[0]
        totals[base] = totals.get(base, 0) + val
    if not totals:
        return None

    hits = totals.get("fastpath.page_cache.hits", 0)
    searches = hits + totals.get("fastpath.page_cache.misses", 0)
    return {
        "totals": totals,
        "page_cache_hit_rate": (round(hits / searches, 4)
                                if searches else None),
        "descents_amortized": totals.get("fastpath.batch.amortized", 0),
    }


def _serving_summary(snapshot: dict) -> dict | None:
    """Aggregate the ``serve.*`` counters and the group-commit
    amortization (commits per barrier window) into one section."""
    counters = snapshot.get("counters", {})
    totals: dict[str, int] = {}
    requests_by_op: dict[str, int] = {}
    for key, val in counters.items():
        if key.startswith("serve.requests["):
            op = key.split("op=", 1)[1].rstrip("]")
            requests_by_op[op] = requests_by_op.get(op, 0) + val
            totals["serve.requests"] = totals.get("serve.requests", 0) + val
        elif key.startswith("serve."):
            base = key.split("[", 1)[0]
            totals[base] = totals.get(base, 0) + val
    histograms = snapshot.get("histograms", {})
    occupancy = histograms.get("shard.group.window_occupancy")
    coalesced = counters.get("shard.group.commits_coalesced", 0)
    if not totals and not coalesced:
        return None
    windows = occupancy["count"] if occupancy else 0
    # why each group-commit window closed, and how long its first
    # commit waited for the barrier to start
    closed_by = {key.split("reason=", 1)[1].rstrip("]"): val
                 for key, val in counters.items()
                 if key.startswith("serve.commit.closed_by[")}
    wait = histograms.get("serve.commit.window_wait_seconds")
    return {
        "totals": totals,
        "requests_by_op": requests_by_op,
        "commit_windows": windows,
        "commits_coalesced": coalesced,
        "amortization": (round(coalesced / windows, 4)
                         if windows else None),
        "max_window_occupancy": occupancy["max"] if occupancy else None,
        "closed_by": closed_by,
        "window_wait_ms": ({"mean": wait["sum"] / wait["count"] * 1e3,
                            "max": wait["max"] * 1e3}
                           if wait and wait["count"] else None),
    }


def _wal_summary(snapshot: dict, trace=None) -> dict | None:
    """Aggregate the ``wal.replay.*`` series into per-shard-partition
    counts (visited / applied / elided / out-of-order) plus replay wall
    time."""
    counters = snapshot.get("counters", {})
    per_shard: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for key, val in counters.items():
        if not key.startswith("wal.replay.") or "[" not in key:
            continue
        base = key.split("[", 1)[0].rsplit(".", 1)[1]
        shard = key.split("shard=", 1)[1].rstrip("]")
        per_shard.setdefault(shard, {})[base] = \
            per_shard.get(shard, {}).get(base, 0) + val
        totals[base] = totals.get(base, 0) + val
    if not per_shard:
        return None
    partitions = snapshot.get("histograms", {}).get(
        "wal.replay.partition_seconds")
    replays = snapshot.get("histograms", {}).get("wal.replay.seconds")
    out = {
        "per_shard": {shard: per_shard[shard]
                      for shard in sorted(per_shard, key=int)},
        "totals": totals,
        "partitions_replayed": partitions["count"] if partitions else 0,
        "replay_wall_seconds": replays["sum"] if replays else 0.0,
        "slowest_partition_seconds":
            partitions["max"] if partitions else None,
    }
    if trace is not None:
        completions = trace.counts().get("wal_partition", 0)
        out["partition_completion_events"] = completions
    return out


def _recovery_summary(trace) -> list[dict] | None:
    """One row per ``shard_recovery`` event the trace still holds: how
    the shard's recovery ended, what it repaired and the threads its pass
    ran on (1: the calling thread, more: a pool that many wide)."""
    rows = [{"shard": e.detail["shard"], "ok": e.detail["ok"],
             "repairs": e.detail["repairs"], "threads": e.detail["threads"],
             "seconds": e.duration}
            for e in trace.events("shard_recovery")]
    return rows or None


def collect(recent: int = _RECENT_EVENTS) -> dict:
    """One JSON-ready document: metrics snapshot + trace summary."""
    trace = get_trace()
    metrics = get_registry().snapshot()
    return {
        "metrics": metrics,
        "fastpath": _fastpath_summary(metrics),
        "serving": _serving_summary(metrics),
        "wal": _wal_summary(metrics, trace),
        "shard_recovery": _recovery_summary(trace),
        "trace": {
            "counts": trace.counts(),
            "recent": [e.to_dict() for e in trace.events()[-recent:]],
        },
    }


def render_report(doc: dict) -> str:
    lines = [render_text(doc["metrics"])]
    fastpath = doc.get("fastpath")
    if fastpath:
        lines += ["", "fastpath summary:"]
        value = fastpath.get("page_cache_hit_rate")
        lines.append(f"  {'page-cache hit rate':<22} "
                     f"{'-' if value is None else f'{value:.1%}'}")
        lines.append(f"  {'descents amortized':<22} "
                     f"{fastpath['descents_amortized']}")
    serving = doc.get("serving")
    if serving:
        lines += ["", "serving summary:"]
        by_op = serving.get("requests_by_op", {})
        if by_op:
            ops = ", ".join(f"{op}={n}" for op, n in sorted(by_op.items()))
            lines.append(f"  {'requests':<22} "
                         f"{serving['totals'].get('serve.requests', 0)} "
                         f"({ops})")
        for label, key in (("overload rejections", "serve.overloaded"),
                           ("drain batches", "serve.batches"),
                           ("coalesced writes", "serve.coalesced_ops"),
                           ("commits acked", "serve.commit.acked"),
                           ("commits failed", "serve.commit.failed")):
            if key in serving["totals"]:
                lines.append(f"  {label:<22} {serving['totals'][key]}")
        amort = serving.get("amortization")
        lines.append(
            f"  {'group-commit windows':<22} {serving['commit_windows']} "
            f"({serving['commits_coalesced']} commits"
            + (f", {amort:.2f}x amortized" if amort else "") + ")")
        if serving.get("max_window_occupancy") is not None:
            lines.append(f"  {'max window occupancy':<22} "
                         f"{serving['max_window_occupancy']}")
        if serving.get("closed_by"):
            reasons = ", ".join(f"{reason}={n}" for reason, n
                                in sorted(serving["closed_by"].items()))
            lines.append(f"  {'windows closed by':<22} {reasons}")
        wait = serving.get("window_wait_ms")
        if wait:
            lines.append(f"  {'window wait':<22} mean "
                         f"{wait['mean']:.3f}ms, max {wait['max']:.3f}ms")
    wal = doc.get("wal")
    if wal:
        lines += ["", "wal replay summary:"]
        lines.append(f"  {'shard':<8} {'applied':>8} {'elided':>8} "
                     f"{'out_of_order':>13}")
        for shard, counts in wal["per_shard"].items():
            lines.append(f"  {shard:<8} {counts.get('applied', 0):>8} "
                         f"{counts.get('elided', 0):>8} "
                         f"{counts.get('out_of_order', 0):>13}")
        totals = wal["totals"]
        lines.append(f"  {'total':<8} {totals.get('applied', 0):>8} "
                     f"{totals.get('elided', 0):>8} "
                     f"{totals.get('out_of_order', 0):>13}")
        lines.append(f"  {'visited / covered by mark':<26} "
                     f"{totals.get('visited', 0)} / "
                     f"{totals.get('elided', 0)}")
        lines.append(f"  {'partitions replayed':<22} "
                     f"{wal['partitions_replayed']}")
        lines.append(f"  {'replay wall time':<22} "
                     f"{wal['replay_wall_seconds'] * 1e3:.2f}ms")
        if wal.get("slowest_partition_seconds") is not None:
            lines.append(f"  {'slowest partition':<22} "
                         f"{wal['slowest_partition_seconds'] * 1e3:.2f}ms")
    recoveries = doc.get("shard_recovery")
    if recoveries:
        lines += ["", "shard recovery summary:"]
        lines.append(f"  {'shard':<8} {'outcome':<8} {'repairs':>8} "
                     f"{'time':>10}  ran on")
        for row in recoveries:
            threads = row["threads"]
            ran_on = ("the calling thread" if threads == 1
                      else f"a pool of {threads} threads")
            lines.append(f"  {row['shard']:<8} "
                         f"{'ok' if row['ok'] else 'failed':<8} "
                         f"{row['repairs']:>8} "
                         f"{row['seconds'] * 1e3:>8.2f}ms  {ran_on}")
    lines += ["", "trace event counts:"]
    counts = doc["trace"]["counts"]
    if counts:
        for etype, n in sorted(counts.items()):
            lines.append(f"  {etype:<14} {n}")
    else:
        lines.append("  (none)")
    recent = doc["trace"]["recent"]
    if recent:
        lines.append(f"last {len(recent)} events:")
        for ev in recent:
            where = ev.get("file") or "-"
            page = ev.get("page")
            token = ev.get("token")
            dur = ev.get("duration")
            extra = ", ".join(f"{k}={v}" for k, v in
                              sorted(ev.get("detail", {}).items()))
            bits = [f"  #{ev['seq']:<5} {ev['etype']:<12} {where}"]
            if page is not None:
                bits.append(f"page={page}")
            if token is not None:
                bits.append(f"token={token}")
            if dur is not None:
                bits.append(f"{dur * 1e6:.0f}us")
            if extra:
                bits.append(extra)
            lines.append(" ".join(bits))
    return "\n".join(lines)


def _render_diff(diff: dict) -> str:
    lines = []
    for section in ("counters", "gauges", "histograms"):
        entries = diff.get(section, {})
        if not entries:
            continue
        lines.append(f"{section}:")
        for key, val in sorted(entries.items()):
            lines.append(f"  {key:<52} {val}")
    return "\n".join(lines) if lines else "(no change)"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description="Run a tiny crash/recovery workload and dump the "
                    "observability registry.")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")
    parser.add_argument("--watch", action="store_true",
                        help="print a metrics diff after every workload "
                             "phase instead of one final dump")
    parser.add_argument("--kinds", default=",".join(DEFAULT_KINDS),
                        help="comma-separated tree kinds "
                             f"(default: {','.join(DEFAULT_KINDS)})")
    parser.add_argument("--keys", type=int, default=96,
                        help="committed keys per tree (default: 96)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="also run an N-shard crash/recovery "
                             "workload, populating the shard-labelled "
                             "metrics (per-shard repair latency, group "
                             "sync windows) and a recovery summary that "
                             "says which threads each pass ran on")
    parser.add_argument("--serving", type=int, default=0, metavar="N",
                        help="also run an N-client concurrent serving "
                             "workload (group-commit mode), populating "
                             "the serve.* metrics and the group commit "
                             "window-occupancy summary")
    parser.add_argument("--wal", type=int, default=0, metavar="N",
                        nargs="?", const=4,
                        help="also run an N-shard WAL-replay workload "
                             "(default N: 4): group logging, a crashed "
                             "commit, parallel partitioned redo — "
                             "populating the wal.replay.* metrics and "
                             "the per-partition replay summary")
    parser.add_argument("--page-size", type=int, default=512)
    parser.add_argument("--no-workload", action="store_true",
                        help="skip the demo workload; dump whatever the "
                             "current process already recorded")
    args = parser.parse_args(argv)

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in TREE_CLASSES:
            parser.error(f"unknown tree kind {kind!r}; choose from "
                         f"{sorted(TREE_CLASSES)}")

    if not args.no_workload:
        for kind in kinds:
            before = get_registry().snapshot()
            run_demo_workload(kind, keys=args.keys,
                              page_size=args.page_size)
            if args.watch and not args.json:
                after = get_registry().snapshot()
                print(f"--- {kind} ---")
                print(_render_diff(diff_snapshots(before, after)))
                print()
        if args.shards > 1:
            before = get_registry().snapshot()
            run_sharded_demo_workload(kinds[0], n_shards=args.shards,
                                      keys=max(args.keys * 2, 64),
                                      page_size=args.page_size)
            if args.watch and not args.json:
                after = get_registry().snapshot()
                print(f"--- {kinds[0]} x{args.shards} shards ---")
                print(_render_diff(diff_snapshots(before, after)))
                print()
        if args.serving > 0:
            before = get_registry().snapshot()
            run_serving_demo_workload(kinds[0],
                                      n_clients=args.serving,
                                      page_size=args.page_size)
            if args.watch and not args.json:
                after = get_registry().snapshot()
                print(f"--- {kinds[0]} serving x{args.serving} "
                      "clients ---")
                print(_render_diff(diff_snapshots(before, after)))
                print()
        if args.wal and args.wal > 1:
            before = get_registry().snapshot()
            run_wal_demo_workload(n_shards=args.wal,
                                  keys=max(args.keys * 2, 64),
                                  page_size=args.page_size)
            if args.watch and not args.json:
                after = get_registry().snapshot()
                print(f"--- wal replay x{args.wal} shards ---")
                print(_render_diff(diff_snapshots(before, after)))
                print()

    doc = collect()
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif not args.watch:
        print(render_report(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
