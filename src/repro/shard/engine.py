"""The sharded engine group: N independent storage engines, one index.

:class:`ShardedEngine` owns N :class:`~repro.storage.engine.StorageEngine`
instances.  Each shard is a complete, self-contained instance of the
paper's machinery — its own simulated disks, buffer pools, freelists and
**its own sync-counter domain** (an independent
:class:`~repro.storage.sync.SyncState`).  Nothing is shared between
shards, which is exactly what makes the group recoverable in parallel: a
crash in shard 3 invalidates no token arithmetic in shard 5, so their
repairs can proceed concurrently without any cross-shard ordering.

:class:`ShardedTree` is the routed handle over one logical index: every
key lives in exactly one shard's B-link tree (chosen by
:class:`~repro.shard.router.ShardRouter` over the encoded key), lookups
route the same way, and range scans merge the per-shard sorted streams.

A shard that crashes stays dead inside the group — operations routed to
it raise :class:`~repro.storage.engine.EngineDeadError` while its
siblings keep serving — until the
:class:`~repro.shard.recovery.RecoveryOrchestrator` reopens it.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from ..core import TREE_CLASSES, open_tree
from ..core.keys import CODECS, KeyCodec
from ..errors import CrashError, KeyRejectedError, ReproError
from ..obs import get_registry, get_trace
from ..storage.engine import EngineDeadError, StorageEngine
from .router import ShardRouter

from ..constants import DEFAULT_PAGE_SIZE, SYNC_COUNTER_BATCH


def waits_on_device(engine: StorageEngine, *, syncs: bool) -> bool:
    """Whether work over *engine* can sleep on the simulated device — the
    only wait that releases the GIL, so the only one that work on a
    sibling shard, run on another thread, can overlap: a page read or
    write always, the sync barrier when the work *syncs*.  Recovery
    stages and the worker pool's batch and heal shares run on extra
    threads only when some shard's work can."""
    return bool(engine.read_latency or engine.write_latency
                or (syncs and engine.sync_latency))


class ShardedEngine:
    """A group of N independent storage engines addressed by shard index."""

    def __init__(self, shards: Sequence[StorageEngine]):
        if not shards:
            raise ReproError("a shard group needs at least one engine")
        self.shards: list[StorageEngine] = list(shards)
        self.router = ShardRouter(len(self.shards))
        reg = get_registry()
        self._m_shard_crashes = reg.counter("shard.crashes")
        self._m_group_syncs = reg.counter("shard.group.sync_all")

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, n_shards: int, *, page_size: int = DEFAULT_PAGE_SIZE,
               seed: int = 0, counter_batch: int = SYNC_COUNTER_BATCH,
               pool_capacity: int | None = None,
               read_latency: float = 0.0,
               write_latency: float = 0.0) -> "ShardedEngine":
        """Create a fresh group of *n_shards* independent engines.

        Shard *i* gets a distinct deterministic seed, so per-shard write
        shuffles stay decorrelated but every run of a test or bench sees
        the same group.
        """
        shards = [
            StorageEngine.create(page_size=page_size,
                                 seed=seed * 7919 + 31 * i + 1,
                                 counter_batch=counter_batch,
                                 pool_capacity=pool_capacity,
                                 read_latency=read_latency,
                                 write_latency=write_latency)
            for i in range(n_shards)
        ]
        return cls(shards)

    @classmethod
    def reopen(cls, group: "ShardedEngine") -> "ShardedEngine":
        """Serial clean-restart of every shard (shutdown + reopen).  Crash
        recovery goes through the orchestrator instead — it reopens dead
        shards and drives their repairs."""
        return cls([StorageEngine.reopen(shard) for shard in group.shards])

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> StorageEngine:
        return self.shards[index]

    def live_shards(self) -> list[int]:
        return [i for i, s in enumerate(self.shards) if not s.dead]

    def crashed_shards(self) -> list[int]:
        """Shards that died by crash (clean shutdowns excluded)."""
        return [i for i, s in enumerate(self.shards)
                if s.dead and not s.clean_shutdown]

    def dirty_page_counts(self) -> list[int]:
        """Per-shard dirty-frame pressure (0 for dead shards)."""
        return [0 if s.dead else s.dirty_page_count() for s in self.shards]

    # -- trees -------------------------------------------------------------

    def create_tree(self, kind: str, name: str,
                    codec: str | KeyCodec = "uint32") -> "ShardedTree":
        """Create one logical index: an identically-named tree of *kind*
        in every shard."""
        codec_obj = CODECS[codec] if isinstance(codec, str) else codec
        trees = [TREE_CLASSES[kind].create(shard, name, codec=codec_obj)
                 for shard in self.shards]
        return ShardedTree(self, name, trees, codec_obj)

    def open_tree(self, name: str) -> "ShardedTree":
        """Open the logical index *name* across the group.  Dead shards
        get a ``None`` handle — operations routed to them raise
        :class:`EngineDeadError` until the orchestrator revives them."""
        trees = [None if shard.dead else open_tree(shard, name)
                 for shard in self.shards]
        live = [t for t in trees if t is not None]
        if not live:
            raise EngineDeadError(
                f"every shard of {name!r} is dead; recover the group first")
        return ShardedTree(self, name, trees, live[0].codec)

    # -- group sync / shutdown ---------------------------------------------

    def sync_shard(self, index: int) -> None:
        """Sync one shard; a crash kills that shard only."""
        try:
            self.shards[index].sync()
        except CrashError:
            self._m_shard_crashes.inc()
            get_trace().emit("shard_crash", shard=index)
            raise

    def sync_all(self) -> list[int]:
        """Sync every live shard; returns the shards that crashed doing
        so.  Unlike a single engine's sync, a crash does not abort the
        pass — the group's whole point is that failures stay local."""
        crashed: list[int] = []
        self._m_group_syncs.inc()
        for i in self.live_shards():
            try:
                self.sync_shard(i)
            except CrashError:
                crashed.append(i)
        return crashed

    def shutdown(self) -> None:
        """Clean shutdown of every live shard.  Idempotent like the
        single-engine shutdown; raises if any shard crashed (a crashed
        shard cannot be cleanly stopped — recover it first)."""
        for i, shard in enumerate(self.shards):
            if shard.clean_shutdown:
                continue
            if shard.dead:
                raise EngineDeadError(
                    f"shard {i} crashed; recover it before shutting the "
                    "group down cleanly")
            shard.shutdown()


class ShardedTree:
    """One logical index, hash-partitioned over a shard group's trees."""

    def __init__(self, group: ShardedEngine, name: str,
                 trees: Sequence[object], codec: KeyCodec):
        self.group = group
        self.name = name
        self.trees = list(trees)
        self.codec = codec
        self.router = group.router
        #: background heal queue feeding on this handle's accesses
        #: (instant restart); every routed operation promotes the heal
        #: unit covering its key, so zipfian-hot subtrees heal first
        self.heal = None

    def attach_heal(self, queue) -> None:
        """Feed this handle's routed accesses into *queue*'s per-shard
        heal priorities (the recovery orchestrator's admit pass calls
        this on the serving handle it returns)."""
        self.heal = queue

    # -- routing -----------------------------------------------------------

    def shard_of(self, value: object) -> int:
        return self.router.shard_of(self.codec.encode(value))

    def _tree_for(self, value: object):
        encoded = self.codec.encode(value)
        index = self.router.shard_of(encoded)
        if self.heal is not None:
            self.heal.note_access(index, encoded)
        return self.live_tree(index)

    def live_tree(self, index: int):
        """Shard *index*'s tree handle, refusing dead shards.  The
        buffer pool of a crashed engine still answers reads, so without
        this gate a stale handle would serve post-crash volatile state
        as if nothing happened."""
        tree = self.trees[index]
        if tree is None or self.group.shard(index).dead:
            raise EngineDeadError(
                f"shard {index} of {self.name!r} is dead; run the "
                "recovery orchestrator to revive it")
        return tree

    # -- the routed access-method API --------------------------------------

    def insert(self, value: object, tid: object) -> None:
        self._tree_for(value).insert(value, tid)

    def lookup(self, value: object):
        return self._tree_for(value).lookup(value)

    def delete(self, value: object) -> None:
        self._tree_for(value).delete(value)

    def update(self, value: object, tid: object) -> bool:
        """Upsert: point *value* at *tid*, replacing any existing entry
        (the pgbench-style mixed workload's write op).  Returns True
        when an entry was replaced, False when this was a fresh insert.
        One call into the owning shard's tree (:meth:`BLinkTree.update`),
        which rewrites a present key's TID in place: no reader and no
        sync ever sees the key missing."""
        return self._tree_for(value).update(value, tid)

    def insert_many(self, pairs) -> int:
        """Batched insert: group by target shard, then let each shard's
        tree amortize one descent per leaf.  Returns the number stored.
        Every shard's sub-batch is applied; keys already present are
        reported by one :class:`DuplicateKeyError` at the end whose
        ``positions`` index *pairs*."""
        return self._route_many(pairs, "insert_many", lambda pair: pair[0])

    def delete_many(self, values) -> int:
        """Batched twin of :meth:`insert_many` for deletes."""
        return self._route_many(values, "delete_many", lambda value: value)

    def _route_many(self, items, method: str, value_of) -> int:
        """Split *items* by the shard of ``value_of(item)``, hand each
        shard's tree its sub-batch through *method*, and map the
        positions any of them rejected back to indices into *items*."""
        groups: dict[int, tuple[list, list[int]]] = {}
        total = 0
        for item in items:
            encoded = self.codec.encode(value_of(item))
            index = self.router.shard_of(encoded)
            if self.heal is not None:
                self.heal.note_access(index, encoded)
            group = groups.get(index)
            if group is None:
                group = groups[index] = ([], [])
            group[0].append(item)
            group[1].append(total)
            total += 1
        rejected: list[int] = []
        error = None
        for index, (batch, positions) in groups.items():
            try:
                getattr(self.live_tree(index), method)(batch)
            except KeyRejectedError as exc:
                error = type(exc)
                rejected += [positions[p] for p in exc.positions]
        if error is not None:
            rejected.sort()
            raise error(f"{len(rejected)} of {total} keys rejected by "
                        f"{method} (batch positions {rejected})", rejected)
        return total

    def range_scan(self, lo=None, hi=None) -> Iterator[tuple[object, object]]:
        """Globally ordered scan: a lazy merge of the per-shard sorted
        streams, keyed on the encoded form (the order the trees sort by).
        Dead shards raise — a scan that silently skipped a shard's keys
        would masquerade as data loss."""
        streams = []
        for index, tree in enumerate(self.trees):
            if tree is None or self.group.shard(index).dead:
                raise EngineDeadError(
                    f"shard {index} of {self.name!r} is dead; range scans "
                    "need every shard")
            streams.append(tree.range_scan(lo, hi))
        encode = self.codec.encode
        return heapq.merge(*streams, key=lambda pair: encode(pair[0]))

    def check(self, **kwargs) -> list[tuple[bytes, object]]:
        """Validate every shard's tree; returns the merged key/TID pairs
        in global key order."""
        pairs: list[tuple[bytes, object]] = []
        for tree in self.trees:
            if tree is not None:
                pairs.extend(tree.check(**kwargs))
        pairs.sort(key=lambda kv: kv[0])
        return pairs

    def close_clean(self) -> None:
        """Persist every live shard's freelist snapshot ahead of a clean
        group shutdown."""
        for tree in self.trees:
            if tree is not None:
                tree.close_clean()

    def key_distribution(self, values) -> list[int]:
        """Shard census of *values* (decoded keys), for imbalance checks."""
        counts = [0] * len(self.trees)
        for value in values:
            counts[self.shard_of(value)] += 1
        return counts
