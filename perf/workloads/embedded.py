"""The three embedded workloads: one engine, one tree, one thread.

All three share the engine shape (8 KiB pages, one ``ShadowBLinkTree``
of about 100 000 uint32 keys bulk-loaded in ascending order and synced)
so that a change to ``core``/``fastpath``/``storage`` is seen from the
warm read path, the cold read path and the write path at once.
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.core import ShadowBLinkTree
from repro.errors import ReproError
from repro.shard import ShardedEngine
from repro.storage import StorageEngine

from ..clock import Clock
from ..counted import SLICE, counted_lookups, counted_writes
from ..oracle import Model, verify_scan
from .common import (INDEX, Samples, Workload, checkpoint, fresh_registry,
                     jittered, make_engines, new_state, restart_phase,
                     tid_for)

PAGE_SIZE = 8192
BASE_KEYS = 100_000

#: uncommitted writes in flight when the restart phase crashes the engine
BURST = 32


class _Embedded(Workload):
    segment_ops = 0

    def setup(self, seed: int):
        fresh_registry()
        n = jittered(BASE_KEYS, seed)
        (engine,), disks = make_engines(1, PAGE_SIZE, seed)
        tree = ShadowBLinkTree.create(engine, INDEX, codec="uint32")
        pairs = [(key, tid_for(key)) for key in range(n)]
        tree.insert_many(pairs)
        engine.sync()
        # the orchestrator recovers groups: wrap the engine in one
        st = new_state(engine=engine, group=ShardedEngine([engine]),
                       tree=tree, disks=disks, n=n, next_key=n,
                       rng=random.Random(seed))
        st.models = [Model(st.tally)]
        st.models[0].load(pairs)
        return st

    def finish(self, st, samples: Samples, clock: Clock,
               budget_s: float) -> None:
        model = st.models[0]
        verify_scan(st.models, st.tree.range_scan(), st.tally)
        if st.checkpoint is None:
            checkpoint(st)
        for key in range(st.next_key, st.next_key + BURST):
            st.tree.insert(key, tid_for(key))
            model.put(key, tid_for(key))
        restart_phase(st, samples, clock, budget_s)


class _EmbeddedRead(_Embedded):
    """Uniform random point lookups of keys that exist — the paper's
    Table 1 lookup workload."""

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        keys = [st.rng.randrange(st.n) for _ in range(self.segment_ops)]
        lookup = st.tree.lookup

        def run():
            latencies, answers = [], []
            for key in keys:
                started = perf_counter()
                try:
                    answer = lookup(key)
                except ReproError as exc:
                    answer = exc        # never equals the model's TID
                latencies.append(perf_counter() - started)
                answers.append(answer)
            return latencies, answers
        (latencies, answers), segment = clock.measure(run)
        samples.add_segment(len(keys), segment, latencies)
        model = st.models[0]
        for key, answer in zip(keys, answers):
            model.check_lookup(key, answer)

    def counted_pass(self, st) -> dict[str, float]:
        rng = random.Random(st.n)
        return counted_lookups(
            st.tree, [rng.randrange(st.n) for _ in range(SLICE)])


class EmbeddedRead(_EmbeddedRead):
    name = "embedded_read"
    why = ("warm point lookups: core descent and fastpath do all the work, "
           "serve/shard/wal none, the buffer pool always hits and the leaf "
           "finger cannot help")
    segment_ops = 5000
    counted_segments = 30
    traced_segments = 6


class EmbeddedReadCold(_EmbeddedRead):
    name = "embedded_read_cold"
    why = ("the same lookups with a buffer pool an eighth of the index: "
           "most fault a leaf in, so eviction, read_page and the per-miss "
           "key decode dominate")
    segment_ops = 500
    counted_segments = 30
    traced_segments = 10

    def setup(self, seed: int):
        st = super().setup(seed)
        # clean shutdown, then reopen with a pool of n_pages // 8 frames
        st.tree.close_clean()
        st.engine.pool_capacity = st.tree.file.n_pages // 8
        st.engine.shutdown()
        st.engine = StorageEngine.reopen(st.engine)
        st.group = ShardedEngine([st.engine])
        st.tree = ShadowBLinkTree.open(st.engine, INDEX)
        return st


class EmbeddedChurn(_Embedded):
    name = "embedded_churn"
    why = ("steady-state writes on the read workloads' code: ascending "
           "right-edge inserts (worst-case splits, finger locality) 1:1 "
           "with deletes of random old keys, one sync per 100 ops")
    segment_ops = 2000
    commit_every = 100
    checkpoint_at = 40
    counted_segments = 30
    traced_segments = 6

    def setup(self, seed: int):
        st = super().setup(seed)
        st.live = list(range(st.n))
        return st

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        ops = []
        live, rng = st.live, st.rng
        for _ in range(self.segment_ops // 2):
            ops.append((st.next_key, tid_for(st.next_key)))
            live.append(st.next_key)
            st.next_key += 1
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            ops.append((live.pop(), None))
        tree, sync = st.tree, st.engine.sync
        commit_every = self.commit_every

        def run():
            latencies, commits, errors = [], [], 0
            for i, (key, tid) in enumerate(ops, 1):
                started = perf_counter()
                try:
                    if tid is None:
                        tree.delete(key)
                    else:
                        tree.insert(key, tid)
                except ReproError:
                    errors += 1
                latencies.append(perf_counter() - started)
                if i % commit_every == 0:
                    started = perf_counter()
                    sync()
                    commits.append(perf_counter() - started)
            return latencies, commits, errors
        (latencies, commits, errors), segment = clock.measure(run)
        st.tally.fail("op_error", errors)
        samples.add_segment(len(ops), segment, latencies, commits)
        samples.writes += len(ops) // 2
        st.tally.attempt(len(ops) + len(commits))
        model = st.models[0]
        for key, tid in ops:
            if tid is None:
                model.remove(key)
            else:
                model.put(key, tid)
        model.acked()      # segment_ops is a multiple of commit_every

    def counted_pass(self, st) -> dict[str, float]:
        rng = random.Random(st.n)
        out = counted_lookups(
            st.tree, [rng.choice(st.live) for _ in range(SLICE)])
        out.update(counted_writes(st.tree, [
            (key, tid_for(key))
            for key in range(st.next_key, st.next_key + SLICE)]))
        st.engine.sync()
        return out
