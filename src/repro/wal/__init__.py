"""WAL comparison substrate (paper Section 4).

Physical (ARIES/IM-style) key logging over the baseline tree versus
logical operation logging over the recoverable trees — a log-volume
comparison; only logical records are ever redone — plus the
corrupted-key propagation probe.  ``repro.wal.group`` lifts logical
logging over a sharded group (one log, shard-tagged records, durable
SYNC_MARK coverage), and ``repro.wal.parallel`` replays that log one
partition per shard on the shard owner threads: a sync-token redo test
says which records a completed sync already covered, each shard's plan
starts at the first one it does not, and the tail is redone a leaf-run
at a time.
"""

from .group import GroupLogicalLoggingTree
from .log import LogRecord, RecordKind, StableLog
from .logical import LogicalLoggingTree, decode_op, encode_op
from .parallel import (
    GroupRedoStats,
    PartitionStats,
    covered_by_mark,
    partition_records,
    replay_group,
    replay_partition,
)
from .physical import PhysicalLoggingTree
from .recovery import logical_redo, physical_records_containing

__all__ = [
    "GroupLogicalLoggingTree",
    "GroupRedoStats",
    "LogRecord",
    "LogicalLoggingTree",
    "PartitionStats",
    "PhysicalLoggingTree",
    "RecordKind",
    "StableLog",
    "covered_by_mark",
    "decode_op",
    "encode_op",
    "logical_redo",
    "partition_records",
    "physical_records_containing",
    "replay_group",
    "replay_partition",
]
