"""repro.shard — sharded engine groups with per-shard crash recovery.

The paper recovers one index by reopening its storage and repairing
lazily on first use.  This package scales that story out: a
:class:`ShardedEngine` hash-partitions one logical index across N
completely independent :class:`~repro.storage.engine.StorageEngine`
instances (own disks, buffer pool, freelist, sync-token domain), a
:class:`ShardWorkerPool` runs batched operations with one owner thread
per shard, a :class:`GroupSyncScheduler` syncs shards by dirty-frame
pressure and group barriers, and a :class:`RecoveryOrchestrator`
reopens crashed shards independently — because no state or token
arithmetic crosses a shard boundary, the per-shard repairs need no
cross-shard ordering, and overlap on a thread pool whenever a device
wait gives them something to overlap.
"""

from .engine import ShardedEngine, ShardedTree
from .heal import HealQueue
from .recovery import (GroupRecoveryReport, RecoveryOrchestrator,
                       ShardRecoveryReport, recover_group)
from .router import ShardRouter
from .scheduler import DEFAULT_DIRTY_THRESHOLD, GroupSyncScheduler
from .workers import BatchReport, OpResult, ShardWorkerPool

__all__ = [
    "ShardRouter",
    "ShardedEngine",
    "ShardedTree",
    "GroupSyncScheduler",
    "DEFAULT_DIRTY_THRESHOLD",
    "HealQueue",
    "ShardWorkerPool",
    "OpResult",
    "BatchReport",
    "RecoveryOrchestrator",
    "ShardRecoveryReport",
    "GroupRecoveryReport",
    "recover_group",
]
