"""The two restart workloads: the measured phase *is* recovery.

Both build a crashed 4-shard ``shadow`` group of 4 KiB pages once,
snapshot its disks, and then rewind and recover it over and over — one
recovery is one segment.  ``restart_heal`` is the paper's story (no log:
admit cold, answer at once, heal behind the traffic); ``wal_replay``
puts the group WAL beside it (repair sweep, then partitioned logical
redo with sync-token elision).  Each is the other's no-change control.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

from repro.errors import CrashError, ReproError
from repro.shard import RecoveryOrchestrator, ShardedEngine, ShardWorkerPool
from repro.storage import CrashOnNthSync, RandomSubsetCrash
from repro.wal import GroupLogicalLoggingTree
from repro.workload.generators import zipfian

from ..clock import Clock
from ..counted import SLICE, counted_lookups
from ..oracle import Model, lost_acked_keys
from .common import (ENTRY_BYTES, INDEX, Samples, Workload, fresh_registry,
                     index_bytes, jittered, make_engines, new_state,
                     note_sweep, restore, snapshot, tid_for)

SHARDS = 4
PAGE_SIZE = 4096
BASE_KEYS = 40_000
LOAD_CHUNK = 1000


class _Recovery(Workload):
    ops_share = 1.0
    counted_segments = 4
    traced_segments = 3

    def counted_pass(self, st) -> dict[str, float]:
        rng = random.Random(st.n)
        keys = list(st.models[0].durable)
        return counted_lookups(
            st.recovered_tree, [rng.choice(keys) for _ in range(SLICE)])

    def finish(self, st, samples: Samples, clock: Clock,
               budget_s: float) -> None:
        tree = st.recovered_tree
        scanned = list(tree.range_scan())
        st.layer["oracle.lost_acked_keys"] = lost_acked_keys(
            st.models, scanned, st.tally)
        st.layer["core.height"] = max(t.height for t in tree.trees)
        st.index_bytes = index_bytes(tree.group)
        st.live_entries = len(scanned)


class RestartHeal(_Recovery):
    name = "restart_heal"
    why = ("every shard crashed mid-sync with a batch in flight, no log: "
           "admit cold, answer at once, heal under zipfian lookups; "
           "shard.recovery/heal and first-use repairs do the work")
    #: foreground lookups per recovery, in batches of ``batch``.  The
    #: heal completes behind the first 3% of them, so op_p50_us and
    #: op_p95_us are what a lookup costs across a restart once the
    #: stall is over, and neither sits on the boundary between the two
    #: modes (with 2 048 lookups op_p95_us sat inside the stalled mode
    #: and spread 24% from seed to seed); the stall itself shows in
    #: ops_per_s, recover_ms and client.op_p99_us
    lookups = 24_576
    batch = 64
    #: every this-many-th recovery is followed by the stop-the-world
    #: sweep of the same snapshot, for comparison
    sweep_every = 5

    def setup(self, seed: int):
        fresh_registry()
        n = jittered(BASE_KEYS, seed)
        engines, disks = make_engines(SHARDS, PAGE_SIZE, seed)
        group = ShardedEngine(engines)
        tree = group.create_tree("shadow", INDEX, codec="uint32")
        pairs = [(key, tid_for(key)) for key in range(n)]
        for start in range(0, n, LOAD_CHUNK):
            tree.insert_many(pairs[start:start + LOAD_CHUNK])
            group.sync_all()
        st = new_state(group=group, disks=disks, n=n, reps=0, sweep_ms=[],
                       recovered_tree=None)
        model = Model(st.tally)
        model.load(pairs)
        st.models = [model]
        # an uncommitted batch is in flight when every shard's sync
        # crashes, persisting a random subset of its pages (n/32 keys:
        # with the n/8 of build_crashed_group, how much of the batch
        # survives swings space_amp by 6% from seed to seed)
        for index, engine in enumerate(engines):
            engine.crash_policy = RandomSubsetCrash(p=1.0,
                                                    seed=seed * 13 + index)
        for key in range(n, n + n // 32):
            tree.insert(key, tid_for(key))
            model.put(key, tid_for(key))
        for engine in engines:
            try:
                engine.sync()
            except CrashError:
                pass
        if group.live_shards():
            raise RuntimeError("every shard should have crashed")
        st.snaps = snapshot(disks)
        st.probe = random.Random(seed).randrange(n)
        keys = zipfian(self.lookups, n, theta=0.99, seed=seed)
        st.batches = [[("lookup", key) for key in keys[i:i + self.batch]]
                      for i in range(0, len(keys), self.batch)]
        return st

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        restore(st.disks, st.snaps)
        batches = st.batches

        def recover_and_serve():
            started = perf_counter()
            _, report = RecoveryOrchestrator(
                admit_immediately=True).recover(st.group, INDEX)
            if not report.ok:
                return report, None, 0.0, [], [], 0, 0.0
            heal = report.heal
            first = heal.tree.lookup(st.probe)
            ttfq = perf_counter() - started
            latencies, reports, during = [], [], 0
            with ShardWorkerPool(heal.tree, heal=heal) as pool:
                serving = perf_counter()
                for batch in batches:
                    batch_started = perf_counter()
                    reports.append(pool.run_batch(batch))
                    latencies.append(perf_counter() - batch_started)
                    if not heal.done:
                        during += len(batch)
                served = perf_counter() - serving
                pool.run_heal()
            return report, first, ttfq, latencies, reports, during, served

        (report, first, ttfq, latencies, reports, during, served), segment \
            = clock.measure(recover_and_serve)
        model, tally = st.models[0], st.tally
        tally.attempt()
        heal = report.heal
        healed = heal.time_to_full_heal() if report.ok else None
        if healed is None or first != model.durable[st.probe]:
            # a repair that aborts early must never read as fast
            tally.fail("failed_recovery")
            tally.attempt(self.lookups)
            tally.fail("op_behind_failed_recovery", self.lookups)
            return
        for batch_report in reports:
            for result in batch_report.results:
                if result.ok:
                    model.check_lookup(result.value, result.result)
                else:
                    tally.attempt()
                    tally.fail("op_error")
        scale = segment.scale
        samples.add_rate(self.lookups, served, scale)
        # a batch is one call: its ops share its latency, amortised
        samples.add_latencies([lat / self.batch for lat in latencies], scale)
        samples.ttfq_ms.append(ttfq * 1e3 * scale)
        samples.raw_ttfq_ms.append(ttfq * 1e3)
        samples.recover_ms.append(healed * 1e3 * scale)
        samples.raw_recover_ms.append(healed * 1e3)
        progress = heal.progress().values()
        st.layer.update({
            "core.repairs_per_recovery": sum(p["repairs"] for p in progress),
            "shard.heal_units": sum(p["units_done"] for p in progress),
            "shard.ops_during_heal": during,
            "shard.reopen_ms_max": 1e3 * scale * max(
                r.restart_seconds for r in report.shards),
        })
        st.recovered_tree = heal.tree
        st.reps += 1
        if st.reps % self.sweep_every == 1:
            self._sweep(st, samples, clock)

    def _sweep(self, st, samples: Samples, clock: Clock) -> None:
        """The same snapshot through the default stop-the-world pass."""
        restore(st.disks, st.snaps)

        def sweep():
            started = perf_counter()
            recovered, report = RecoveryOrchestrator().recover(st.group,
                                                               INDEX)
            return recovered, report, perf_counter() - started
        (recovered, report, elapsed), segment = clock.measure(sweep)
        st.tally.attempt()
        if not report.ok:
            st.tally.fail("failed_recovery")
            return
        # the rewind invalidated the healed handle: serve from this one
        st.recovered_tree = recovered.open_tree(INDEX)
        ms = 1e3 * segment.scale
        st.sweep_ms.append(elapsed * ms)
        st.layer["shard.sweep_ms"] = median(st.sweep_ms)
        note_sweep(report, ms, st.layer)


class WalReplay(_Recovery):
    name = "wal_replay"
    why = ("log-based restart: 40k logged inserts covered by SYNC_MARKs "
           "plus a committed 4k tail whose sync crashed; partitioning, "
           "redo test, elision and logical redo work above the repair "
           "sweep's floor")
    commit_every = 200
    lookups = 2000
    subparts = 2

    def setup(self, seed: int):
        fresh_registry()
        n = jittered(BASE_KEYS, seed)
        engines, disks = make_engines(SHARDS, PAGE_SIZE, seed)
        group = ShardedEngine(engines)
        rng = random.Random(seed)
        committed = [2 * i for i in range(n)]
        tail = [2 * j + 1 for j in rng.sample(range(n), n // 10)]
        wal = GroupLogicalLoggingTree.create(group, INDEX, kind="shadow")
        # chunked transactions that commit cleanly: every shard
        # syncs and appends its SYNC_MARK, so these are elidable
        for start in range(0, n, self.commit_every):
            wal.current_xid += 1
            for key in committed[start:start + self.commit_every]:
                wal.insert(key, tid_for(key))
            if wal.commit():
                raise RuntimeError("a load-phase commit crashed")
        # the tail commits in the log, then every shard's sync
        # crashes keeping nothing: exactly the redo recovery owes
        wal.current_xid += 1
        for key in tail:
            wal.insert(key, tid_for(key))
        for engine in engines:
            engine.crash_policy = CrashOnNthSync(1, keep=0)
        if sorted(wal.commit()) != list(range(SHARDS)):
            raise RuntimeError("every shard should have crashed")
        st = new_state(group=group, disks=disks, n=n, wal=wal,
                       recovered_tree=None)
        model = Model(st.tally)
        model.load((key, tid_for(key)) for key in committed + tail)
        st.models = [model]
        st.layer["wal.log_bytes_per_user_byte"] = \
            wal.log.bytes_written / (len(model.durable) * ENTRY_BYTES)
        st.snaps = snapshot(disks)
        st.probe = rng.choice(tail)
        keys = committed + tail
        st.keys = [rng.choice(keys) for _ in range(self.lookups)]
        return st

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        restore(st.disks, st.snaps)

        def recover():
            started = perf_counter()
            recovered, report = RecoveryOrchestrator(
                wal=st.wal.log, wal_mode="parallel-logical",
                wal_subparts=self.subparts).recover(st.group, INDEX)
            elapsed = perf_counter() - started
            if not report.ok:
                return report, None, None, elapsed, 0.0
            # replay must finish before answers are right, so the first
            # query comes after it
            tree = recovered.open_tree(INDEX)
            first = tree.lookup(st.probe)
            return report, tree, first, elapsed, perf_counter() - started

        (report, tree, first, elapsed, ttfq), segment = clock.measure(recover)
        model, tally = st.models[0], st.tally
        tally.attempt()
        if not report.ok or first != model.durable[st.probe]:
            tally.fail("failed_recovery")
            tally.attempt(self.lookups)
            tally.fail("op_behind_failed_recovery", self.lookups)
            return
        ms = 1e3 * segment.scale
        samples.recover_ms.append(elapsed * ms)
        samples.raw_recover_ms.append(elapsed * 1e3)
        samples.ttfq_ms.append(ttfq * ms)
        samples.raw_ttfq_ms.append(ttfq * 1e3)
        redo = report.redo
        replays = [r.replay_seconds for r in report.shards]
        st.layer.update({
            "core.repairs_per_recovery": report.total_repairs,
            "shard.reopen_ms_max": ms * max(
                r.restart_seconds for r in report.shards),
            "wal.records_scanned": redo.records,
            "wal.records_applied": redo.applied,
            "wal.elided_ratio": redo.elided / redo.records,
            "wal.replay_ms_sum": ms * sum(replays),
            "wal.replay_ms_max": ms * max(replays),
            "wal.repair_sweep_ms": ms * max(
                r.drive_seconds for r in report.shards),
        })
        st.recovered_tree = tree

        lookup, keys = tree.lookup, st.keys

        def serve():
            latencies, answers = [], []
            for key in keys:
                started = perf_counter()
                try:
                    answer = lookup(key)
                except ReproError as exc:
                    answer = exc
                latencies.append(perf_counter() - started)
                answers.append(answer)
            return latencies, answers
        (latencies, answers), segment = clock.measure(serve)
        samples.add_segment(len(keys), segment, latencies)
        for key, answer in zip(keys, answers):
            model.check_lookup(key, answer)
