"""Render the observability registry a script fills:
``python -m repro.tools.stats [--json] SCRIPT [ARGS...]``.

The tool runs *SCRIPT* in this process as ``__main__`` (with
``sys.argv = [SCRIPT, *ARGS]``), then prints everything the
instrumentation recorded while it ran: counters, gauges, latency
histograms, the derived fastpath / serving / WAL-replay / shard-recovery
summaries, and the recovery-event trace.  It owns no workload of its
own; the examples are the workloads::

    python -m repro.tools.stats examples/crash_recovery_demo.py
    python -m repro.tools.stats --json examples/shard_group_demo.py

``crash_recovery_demo.py`` crashes in-flight splits of every recoverable
tree kind, so its report shows splits, crashes and first-use repairs;
``shard_group_demo.py`` fills the shard, serving and WAL sections.

Under ``--json`` the script's own stdout goes to stderr, so stdout holds
one JSON document.  A script that raises makes the tool fail; one that
exits with status 0 is rendered like one that returns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import runpy
import sys

from ..obs import get_registry, get_trace, render_text

_RECENT_EVENTS = 20


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
        for label, key in (("ran on the caller", "serve.ran_here"),
                           ("queued to the owner", "serve.queued"),
                           ("  run by a waiter", "serve.helped"),
                           ("overload rejections", "serve.overloaded"),
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


def run_script(script: str, args: list[str]) -> dict:
    """Run *script* as ``__main__`` with ``sys.argv = [script, *args]``
    and return the globals it finished with (none when it exited with
    status 0: an exit takes them with it)."""
    saved = sys.argv
    sys.argv = [script, *args]
    try:
        return runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
        return {}
    finally:
        sys.argv = saved


def run_cli(prog: str, description: str, argv, report) -> int:
    """The command line of the script-running tools,
    ``prog [--json] SCRIPT [ARGS...]``: run SCRIPT (its own stdout goes
    to stderr under ``--json``), then print the ``(document, render,
    status)`` that ``report(globals)`` returns — the document as JSON,
    or what ``render()`` returns — and return the status."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text; the "
                             "script's own output goes to stderr")
    parser.add_argument("script", help="the script to run as __main__")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments passed to the script")
    args = parser.parse_args(argv)

    with contextlib.redirect_stdout(sys.stderr if args.json
                                    else sys.stdout):
        scope = run_script(args.script, args.args)
    document, render, status = report(scope)
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render())
    return status


def main(argv=None) -> int:
    def report(_scope):
        snapshot = collect()
        return snapshot, lambda: render_report(snapshot), 0

    return run_cli("python -m repro.tools.stats",
                   "Run a Python script in this process, then dump the "
                   "observability registry and trace it filled.",
                   argv, report)


if __name__ == "__main__":
    raise SystemExit(main())
