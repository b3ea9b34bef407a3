"""The storage engine: files, engine-wide sync, crash and restart.

A :class:`StorageEngine` owns a set of :class:`~repro.storage.pagefile.PageFile`
objects plus the global sync-counter state, and implements the paper's
``sync`` primitive across all of them:

* :meth:`sync` collects every dirty buffer from every file into a single
  batch, shuffles it (OS-chosen write order), and writes it through the
  crash policy.  On success the sync counter advances (iff a split
  happened), deferred frees drain, and dirty flags clear.
* A :class:`~repro.errors.CrashError` from the policy marks the engine
  **dead**: all further operations raise, exactly as if the process had
  been killed.  :meth:`reopen_after_crash` builds a fresh engine over the
  same durable state — the only state that survives, as in the paper.

Restart cost is the point of the paper: reopening touches only the engine
control page (to re-initialize the sync counter from the persisted
maximum).  No log is processed; indexes repair themselves on first use.
"""

from __future__ import annotations

import random
import time
from time import perf_counter
from typing import Callable

from ..constants import DEFAULT_PAGE_SIZE, SYNC_COUNTER_BATCH
from ..errors import CrashError, ReproError
from ..obs import COUNT_BUCKETS, get_registry, get_trace
from .crash import NO_CRASH, CrashPolicy
from .disk import SimulatedDisk
from .pagefile import PageFile
from .sync import SyncState

import struct

#: Control-page payload: magic, max_counter, counter, last_crash_token, clean
_CONTROL_STRUCT = struct.Struct("<IQQQB")
_CONTROL_MAGIC = 0x52435054  # "RCPT"
_CONTROL_FILE = "_control"


class EngineDeadError(ReproError):
    """The engine crashed (or shut down); reopen it to continue."""


class StorageEngine:
    """Top-level storage manager for one simulated machine.

    Create a fresh database with :meth:`create`; simulate a reboot after a
    crash with :meth:`reopen_after_crash`; simulate a clean stop/start with
    :meth:`shutdown` + :meth:`reopen` (which detects the clean record and
    keeps the counter).  :meth:`reopen` handles both records;
    :meth:`reopen_after_crash` insists its input actually crashed.
    """

    def __init__(self, *, page_size: int = DEFAULT_PAGE_SIZE, seed: int = 0,
                 disks: dict[str, SimulatedDisk] | None = None,
                 counter_batch: int = SYNC_COUNTER_BATCH,
                 pool_capacity: int | None = None,
                 read_latency: float = 0.0,
                 write_latency: float = 0.0,
                 sync_latency: float = 0.0):
        self.page_size = page_size
        self.pool_capacity = pool_capacity
        self._rng = random.Random(seed)
        self._seed = seed
        self._counter_batch = counter_batch
        self.read_latency = read_latency
        self.write_latency = write_latency
        #: fixed per-sync barrier cost (the fsync analogue): a real
        #: durability barrier pays a device flush regardless of how few
        #: pages it writes, which is exactly what makes group commit
        #: worthwhile — the sleep releases the GIL like the disk ones
        self.sync_latency = sync_latency
        self.dead = False
        #: True once :meth:`shutdown` completed; distinguishes a clean stop
        #: from a crash for :meth:`reopen_after_crash`'s rejection check
        self.clean_shutdown = False
        self.crash_policy: CrashPolicy = NO_CRASH
        #: callbacks invoked after every successful sync (trees hook these
        #: to observe sync completion; tests hook them to count syncs)
        self.post_sync_hooks: list[Callable[[], None]] = []

        reg = get_registry()
        #: syncs that ran to completion; crashed ones count separately
        self.syncs_completed = reg.counter("engine.syncs.completed")
        self.syncs_crashed = reg.counter("engine.syncs.crashed")
        self._m_pages_written = reg.counter("engine.sync.pages_written")
        self._m_counter_advances = reg.counter("engine.sync.counter_advances")
        self._h_sync_seconds = reg.histogram("engine.sync.seconds")
        self._h_batch_pages = reg.histogram("engine.sync.batch_pages",
                                            bounds=COUNT_BUCKETS)

        #: set when SyncState's persist callback fires before __init__ has
        #: assigned ``sync_state`` — the first _write_control flushes it
        self._control_flush_pending = False

        self._disks: dict[str, SimulatedDisk] = disks if disks is not None else {}
        self._files: dict[str, PageFile] = {}

        control_disk = self._disks.get(_CONTROL_FILE)
        if control_disk is None:
            control_disk = SimulatedDisk(_CONTROL_FILE, page_size,
                                         seed=self._rng.randrange(1 << 30),
                                         read_latency=read_latency,
                                         write_latency=write_latency)
            self._disks[_CONTROL_FILE] = control_disk
            self.sync_state = SyncState.fresh(self._persist_max_counter,
                                              batch=counter_batch)
            self._write_control(clean=False)
        else:
            self.sync_state = self._recover_sync_state(control_disk)
        if self._control_flush_pending:  # pragma: no cover - both branches
            # above already issue a _write_control; this is the safety net
            # should a refactor ever reorder them
            self._write_control(clean=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, *, page_size: int = DEFAULT_PAGE_SIZE, seed: int = 0,
               counter_batch: int = SYNC_COUNTER_BATCH,
               pool_capacity: int | None = None,
               read_latency: float = 0.0,
               write_latency: float = 0.0,
               sync_latency: float = 0.0) -> "StorageEngine":
        return cls(page_size=page_size, seed=seed,
                   counter_batch=counter_batch, pool_capacity=pool_capacity,
                   read_latency=read_latency, write_latency=write_latency,
                   sync_latency=sync_latency)

    @classmethod
    def reopen(cls, dead_engine: "StorageEngine", *,
               seed: int | None = None) -> "StorageEngine":
        """Boot a fresh engine over the durable state of *dead_engine*.

        The general restart entry point: works equally for a crashed and a
        cleanly shut down engine; the control page distinguishes the two
        (a clean record keeps the counter, a crash record re-seeds it from
        the persisted maximum).
        """
        return cls(page_size=dead_engine.page_size,
                   seed=dead_engine._seed + 1 if seed is None else seed,
                   disks=dead_engine._disks,
                   counter_batch=dead_engine._counter_batch,
                   pool_capacity=dead_engine.pool_capacity,
                   read_latency=dead_engine.read_latency,
                   write_latency=dead_engine.write_latency,
                   sync_latency=dead_engine.sync_latency)

    @classmethod
    def reopen_after_crash(cls, dead_engine: "StorageEngine", *,
                           seed: int | None = None) -> "StorageEngine":
        """Boot a fresh engine over the durable state of a *crashed*
        engine.

        Rejects an engine that was shut down cleanly: crash recovery on a
        clean store silently discards the preserved counter state and
        re-seeds the last-crash token, which would make every pre-shutdown
        split look interrupted.  Use :meth:`reopen` for the general
        restart path that handles both records.
        """
        if dead_engine.clean_shutdown:
            raise ReproError(
                "engine was shut down cleanly, not crashed; use "
                "StorageEngine.reopen for a clean restart"
            )
        return cls.reopen(dead_engine, seed=seed)

    # -- files ---------------------------------------------------------------

    def create_file(self, name: str) -> PageFile:
        self._check_alive()
        if name in self._files or name == _CONTROL_FILE:
            raise ReproError(f"file {name!r} already exists")
        if name not in self._disks:
            self._disks[name] = SimulatedDisk(
                name, self.page_size, seed=self._rng.randrange(1 << 30),
                read_latency=self.read_latency,
                write_latency=self.write_latency)
        file = PageFile(name, self._disks[name],
                        pool_capacity=self.pool_capacity)
        self._files[name] = file
        return file

    def open_file(self, name: str) -> PageFile:
        """Open an existing file (its disk must already hold data)."""
        self._check_alive()
        if name in self._files:
            return self._files[name]
        if name not in self._disks:
            raise ReproError(f"no such file {name!r}")
        file = PageFile(name, self._disks[name],
                        pool_capacity=self.pool_capacity)
        self._files[name] = file
        return file

    def file_names(self) -> list[str]:
        return [n for n in self._disks if n != _CONTROL_FILE]

    def dirty_page_count(self) -> int:
        """Total dirty frames across every open file — the engine-wide
        sync-pressure reading the group-sync scheduler polls."""
        return sum(f.pool.dirty_frame_count() for f in self._files.values())

    # -- sync -------------------------------------------------------------------

    def sync(self, policy: CrashPolicy | None = None) -> None:
        """Write all dirty pages of all files; the paper's commit-time sync.

        Raises :class:`CrashError` (and kills the engine) if the crash
        policy fires.
        """
        self._check_alive()
        if policy is None:
            policy = self.crash_policy
        started = perf_counter()
        batches = {
            name: file.pool.dirty_batch() for name, file in self._files.items()
        }
        order = [(name, page_no)
                 for name, batch in batches.items() for page_no in batch]
        self._rng.shuffle(order)

        survivors = policy.select(order)
        if survivors is None:
            for name, page_no in order:
                self._disks[name].write_page(page_no, batches[name][page_no])
            if self.sync_latency > 0:
                # the durability barrier itself: paid once per sync no
                # matter how few pages went out (sleep releases the GIL)
                time.sleep(self.sync_latency)
            for name, file in self._files.items():
                file.pool.clear_dirty(iter(batches[name]))
                file.freelist.drain_after_sync()
            counter_before = self.sync_state.counter
            self.sync_state.on_sync_complete()
            advanced = self.sync_state.synced_since_init(counter_before)
            self.syncs_completed.inc()
            self._m_pages_written.inc(len(order))
            if advanced:
                self._m_counter_advances.inc()
            duration = perf_counter() - started
            self._h_sync_seconds.observe(duration)
            self._h_batch_pages.observe(len(order))
            get_trace().emit("sync", token=self.sync_state.counter,
                             duration=duration, pages=len(order),
                             advanced=advanced)
            # a snapshot: a hook may unregister itself
            for hook in tuple(self.post_sync_hooks):
                hook()
            return

        survivor_set = set(survivors)
        written = []
        for pid in order:
            if pid in survivor_set:
                name, page_no = pid
                self._disks[name].write_page(page_no, batches[name][page_no])
                written.append(pid)
        self.dead = True
        dropped = [pid for pid in order if pid not in survivor_set]
        self.syncs_crashed.inc()
        get_trace().emit("crash", token=self.sync_state.counter,
                         duration=perf_counter() - started,
                         written=len(written), dropped=len(dropped))
        raise CrashError(
            f"crash during engine sync: {len(written)}/{len(order)} pages "
            "persisted", written=written, dropped=dropped,
        )

    # -- shutdown / recovery ------------------------------------------------------

    def shutdown(self) -> None:
        """Clean shutdown: sync everything, persist the counter state, mark
        the control page clean, and kill the engine.

        Idempotent: a second call on an already cleanly shut down engine
        is a no-op (operators retry shutdown paths; the second attempt
        must not be reported as a crash).  A *crashed* engine still raises
        — there is nothing left to flush and pretending otherwise would
        stamp a clean record over a crash.
        """
        if self.dead:
            if self.clean_shutdown:
                return
            self._check_alive()
        self.sync()
        self._write_control(clean=True)
        self.dead = True
        self.clean_shutdown = True

    def _recover_sync_state(self, control_disk: SimulatedDisk) -> SyncState:
        raw = control_disk.read_page(0)
        magic, max_counter, counter, last_crash, clean = \
            _CONTROL_STRUCT.unpack_from(raw, 0)
        if magic != _CONTROL_MAGIC:
            raise ReproError("control page corrupt: bad magic")
        if clean:
            state = SyncState.after_clean_shutdown(
                self._persist_max_counter, counter=counter,
                last_crash_token=last_crash, persisted_max=max_counter,
                batch=self._counter_batch)
        else:
            state = SyncState.after_crash(
                self._persist_max_counter, persisted_max=max_counter,
                batch=self._counter_batch)
        # clear the clean flag so a future crash is recognized as one
        self.sync_state = state
        self._write_control(clean=False)
        return state

    def _persist_max_counter(self, new_max: int) -> None:
        # SyncState's constructor calls back here (via _ensure_headroom)
        # before __init__ has assigned sync_state; the new maximum already
        # lives in the SyncState being built, so nothing is copied aside —
        # we only note that a control write is owed, and both __init__
        # branches issue one unconditionally right after assignment
        if getattr(self, "sync_state", None) is None:
            self._control_flush_pending = True
            return
        self._write_control(clean=False)

    def _write_control(self, *, clean: bool) -> None:
        state = self.sync_state
        self._control_flush_pending = False
        buf = bytearray(self.page_size)
        _CONTROL_STRUCT.pack_into(
            buf, 0, _CONTROL_MAGIC, state.max_counter, state.counter,
            state.last_crash_token, 1 if clean else 0)
        # synchronous single-page write: atomic, bypasses crash policies
        self._disks[_CONTROL_FILE].write_page(0, buf)

    # -- liveness -------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise EngineDeadError(
                "storage engine is dead (crashed or shut down); "
                "use StorageEngine.reopen_after_crash"
            )
