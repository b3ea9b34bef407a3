"""The two served workloads: two client threads on one ``Server``.

Both run against a 4-shard ``hybrid`` group of 4 KiB pages preloaded with
about 40 000 keys, fronted by ``Server(tree)`` exactly as the README
builds it (group commit, default window), every engine sync paying one
simulated fsync-class barrier.  The sandbox has two cores, so there are
two clients; the coordinating thread only calibrates while they are
parked on a barrier between segments.

Each client owns the keys congruent to its id modulo the client count,
so its share of the reference model is exact even though both clients
hammer the same hot pages.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter

from repro.core import TID
from repro.errors import ReproError
from repro.serve import Overloaded, Server
from repro.shard import ShardedEngine
from repro.workload.generators import mixed_ops

from ..clock import Clock
from ..counted import SLICE, counted_lookups, counted_writes
from ..oracle import Model, Tally, verify_scan
from .common import (INDEX, SERVED_SYNC_LATENCY, Samples, Workload,
                     checkpoint, fresh_registry, jittered, make_engines,
                     new_state, restart_phase, tid_for)

SHARDS = 4
PAGE_SIZE = 4096
BASE_KEYS = 40_000
CLIENTS = 2
LOAD_CHUNK = 1000

#: keys the ingest clients insert start here, clear of the preload
INGEST_BASE = 1_000_000

#: a parked client that waits this long for its peers has lost them
BARRIER_TIMEOUT_S = 120.0


class Clients:
    """Client threads that run one segment at a time, parking on a
    barrier in between so the coordinator can calibrate."""

    def __init__(self, n: int, work):
        self._work = work
        self._start = threading.Barrier(n + 1)
        self._end = threading.Barrier(n + 1)
        self._payloads: list = [None] * n
        self._results: list = [None] * n
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._loop, args=(cid,),
                             name=f"perf-client-{cid}", daemon=True)
            for cid in range(n)]
        for thread in self._threads:
            thread.start()

    def _loop(self, cid: int) -> None:
        while True:
            self._start.wait(BARRIER_TIMEOUT_S)
            if self._stopping:
                return
            try:
                self._results[cid] = self._work(cid, self._payloads[cid])
            except Exception as exc:
                # thread boundary: a client that died silently would
                # leave its peers parked forever; the coordinator
                # re-raises this
                self._results[cid] = exc
            self._end.wait(BARRIER_TIMEOUT_S)

    def run(self, payloads: list) -> list:
        """Release the clients on *payloads* and wait for all of them."""
        self._payloads = payloads
        self._start.wait(BARRIER_TIMEOUT_S)
        self._end.wait(BARRIER_TIMEOUT_S)
        for result in self._results:
            if isinstance(result, Exception):
                raise result
        return list(self._results)

    def close(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._start.wait(BARRIER_TIMEOUT_S)
        for thread in self._threads:
            thread.join(BARRIER_TIMEOUT_S)


def _commit(session, events: list, commits: list) -> None:
    started = perf_counter()
    try:
        session.commit()
        ok = True
    except ReproError:
        ok = False
    commits.append(perf_counter() - started)
    events.append(("commit", None, None, ok))


def replay(events: list, model: Model, tally: Tally) -> None:
    """Check one client's answers against its model, in issue order."""
    for op, key, tid, answer in events:
        if op == "commit":
            tally.attempt()
            if answer:
                model.acked()
            else:
                tally.fail("commit_failed")
        elif op == "read":
            model.check_lookup(key, answer)
        elif isinstance(answer, Overloaded):
            tally.attempt()
            tally.fail("overloaded")
        elif isinstance(answer, Exception):
            tally.attempt()
            tally.fail("op_error")
        elif op == "delete":
            tally.attempt()
            model.remove(key)
        else:
            if op == "update":
                model.check_replaced(key, answer)
            else:
                tally.attempt()
            model.put(key, tid)


class _Served(Workload):
    counted_segments = 12
    traced_segments = 5

    def setup(self, seed: int):
        fresh_registry()
        n = jittered(BASE_KEYS, seed)
        engines, disks = make_engines(SHARDS, PAGE_SIZE, seed)
        group = ShardedEngine(engines)
        tree = group.create_tree("hybrid", INDEX, codec="uint32")
        pairs = [(key, tid_for(key)) for key in range(n)]
        for start in range(0, n, LOAD_CHUNK):
            tree.insert_many(pairs[start:start + LOAD_CHUNK])
            group.sync_all()
        for engine in engines:
            engine.sync_latency = SERVED_SYNC_LATENCY
        server = Server(tree)
        st = new_state(
            group=group, tree=tree, disks=disks, n=n, seed=seed,
            server=server,
            sessions=[server.session() for _ in range(CLIENTS)],
            rngs=[random.Random(seed * 101 + cid) for cid in range(CLIENTS)],
            seq=[0] * CLIENTS)
        st.models = [Model(st.tally) for _ in range(CLIENTS)]
        for cid, model in enumerate(st.models):
            model.load(pairs[cid::CLIENTS])
        st.clients = Clients(
            CLIENTS, lambda cid, ops: self.client(st.sessions[cid], ops))
        return st

    def teardown(self, st) -> None:
        st.clients.close()
        st.server.close()

    def segment(self, st, samples: Samples, clock: Clock) -> None:
        payloads = [self.next_ops(st, cid) for cid in range(CLIENTS)]
        results, segment = clock.measure(lambda: st.clients.run(payloads))
        latencies, commits = [], []
        encode = st.tree.codec.encode
        for cid, (events, client_latencies, client_commits) \
                in enumerate(results):
            latencies += client_latencies
            commits += client_commits
            replay(events, st.models[cid], st.tally)
            samples.writes += sum(e[0] in ("update", "insert")
                                  for e in events)
            # census through the router, not ShardedTree.shard_of: the
            # traced run counts that call as routing work
            samples.shard_ops.update(st.tree.router.distribution(
                encode(e[1]) for e in events if e[0] != "commit"))
        samples.add_segment(len(latencies), segment, latencies, commits)

    def counted_pass(self, st) -> dict[str, float]:
        rng = random.Random(st.n)
        out = counted_lookups(
            st.tree, [rng.randrange(st.n) for _ in range(SLICE)])
        out.update(counted_writes(st.tree, [
            (key, tid_for(key))
            for key in range(INGEST_BASE // 2, INGEST_BASE // 2 + SLICE)]))
        st.group.sync_all()
        return out

    def finish(self, st, samples: Samples, clock: Clock,
               budget_s: float) -> None:
        verify_scan(st.models, st.server.range_scan(), st.tally)
        if st.checkpoint is None:
            checkpoint(st)
        # one burst per client that no commit ever covers
        for cid, session in enumerate(st.sessions):
            for i in range(32):
                key = INGEST_BASE // 4 + i * CLIENTS + cid
                session.submit("insert", key, tid_for(key))
                st.models[cid].put(key, tid_for(key))
            session.flush()
        self.teardown(st)
        restart_phase(st, samples, clock, budget_s)

    def next_ops(self, st, cid: int) -> list:
        raise NotImplementedError

    @staticmethod
    def client(session, ops: list):
        raise NotImplementedError


class ServedMixed(_Served):
    name = "served_mixed"
    why = ("pgbench-shaped zipfian get/update with a commit per 4 updates "
           "at low concurrency: serve queueing, hand-offs and the "
           "group-commit window do most of the work, the batcher is "
           "bypassed")
    segment_ops = 240          # per client
    commit_every = 4
    checkpoint_at = 15
    stream_ops = 12_000

    def setup(self, seed: int):
        st = super().setup(seed)
        st.streams = [[] for _ in range(CLIENTS)]
        st.rounds = [0] * CLIENTS
        for cid in range(CLIENTS):
            self._refill(st, cid)
        return st

    def _refill(self, st, cid: int) -> None:
        """Draw the next stretch of the client's zipfian stream, mapped
        onto the keys it owns."""
        st.rounds[cid] += 1
        drawn = mixed_ops(self.stream_ops, st.n // CLIENTS,
                          read_fraction=0.5, theta=0.99,
                          seed=st.seed * 101 + cid + 1009 * st.rounds[cid])
        st.streams[cid] = [(kind, key * CLIENTS + cid)
                           for kind, key in reversed(drawn)]

    def next_ops(self, st, cid: int) -> list:
        ops = []
        for _ in range(self.segment_ops):
            if not st.streams[cid]:
                self._refill(st, cid)
            kind, key = st.streams[cid].pop()
            if kind == "read":
                ops.append((kind, key, None))
            else:
                st.seq[cid] += 1
                ops.append((kind, key, TID(2_000_000 + st.seq[cid], cid)))
        return ops

    @staticmethod
    def client(session, ops: list):
        events, latencies, commits = [], [], []
        since_commit = 0
        for kind, key, tid in ops:
            started = perf_counter()
            try:
                if kind == "read":
                    answer = session.get(key)
                else:
                    answer = session.update(key, tid)
            except ReproError as exc:
                answer = exc
            latencies.append(perf_counter() - started)
            events.append((kind, key, tid, answer))
            if kind != "read":
                since_commit += 1
                if since_commit == ServedMixed.commit_every:
                    _commit(session, events, commits)
                    since_commit = 0
        if since_commit:
            _commit(session, events, commits)
        return events, latencies, commits


class ServedIngest(_Served):
    name = "served_ingest"
    why = ("pipelined bursts of 32 unique-key inserts (every 4th burst "
           "deletes) then commit: coalescing into insert_many/delete_many "
           "fires on nearly every op and each barrier carries many dirty "
           "pages")
    segment_bursts = 12        # per client
    burst = 32
    checkpoint_at = 30
    counted_segments = 10

    def setup(self, seed: int):
        st = super().setup(seed)
        st.bursts = [0] * CLIENTS
        st.inserted = [[] for _ in range(CLIENTS)]
        return st

    def next_ops(self, st, cid: int) -> list:
        bursts = []
        mine, rng = st.inserted[cid], st.rngs[cid]
        for _ in range(self.segment_bursts):
            st.bursts[cid] += 1
            if st.bursts[cid] % 4 == 0:
                keys = []
                for _ in range(self.burst):
                    victim = rng.randrange(len(mine))
                    mine[victim], mine[-1] = mine[-1], mine[victim]
                    keys.append((mine.pop(), None))
                bursts.append(("delete", keys))
            else:
                keys = []
                for _ in range(self.burst):
                    key = INGEST_BASE + st.seq[cid] * CLIENTS + cid
                    st.seq[cid] += 1
                    mine.append(key)
                    keys.append((key, tid_for(key)))
                bursts.append(("insert", keys))
        return bursts

    @staticmethod
    def client(session, bursts: list):
        events, latencies, commits = [], [], []
        for op, keys in bursts:
            in_flight = []
            for key, tid in keys:
                started = perf_counter()
                try:
                    request = session.submit(op, key, tid)
                except ReproError as exc:
                    events.append((op, key, tid, exc))
                    continue
                in_flight.append((started, request, key, tid))
            for started, request, key, tid in in_flight:
                try:
                    answer = request.future.result()
                except ReproError as exc:
                    answer = exc
                latencies.append(perf_counter() - started)
                events.append((op, key, tid, answer))
            _commit(session, events, commits)
        return events, latencies, commits
