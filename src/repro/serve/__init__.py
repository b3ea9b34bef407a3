"""repro.serve — the concurrent serving front-end.

Client :class:`Session` objects submit operations to a shared
:class:`Server`; a synchronous call on an idle shard runs on the
calling thread, other requests route to per-shard bounded queues and
drain on the shard owner threads (coalescing different clients' writes
into the tree's batched fast paths), and commits funnel through a
cross-client group-commit stage so one sync barrier acknowledges many
commits.
See DESIGN.md §5k.
"""

from .batcher import (DEFAULT_BATCH_MAX, DEFAULT_MAX_DEPTH, ShardQueues,
                      coalesce)
from .commit import DEFAULT_MAX_WINDOW, GroupCommitStage
from .errors import (CommitFailed, Overloaded, RequestTimeout, ServeError,
                     ServerClosed)
from .request import (DEFAULT_WAIT_SECONDS, OPS, WRITE_OPS, CommitRequest,
                      OpFuture, Request)
from .server import Server
from .session import Session

__all__ = [
    "DEFAULT_BATCH_MAX",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_WINDOW",
    "DEFAULT_WAIT_SECONDS",
    "OPS",
    "WRITE_OPS",
    "CommitFailed",
    "CommitRequest",
    "GroupCommitStage",
    "OpFuture",
    "Overloaded",
    "Request",
    "RequestTimeout",
    "ServeError",
    "ServerClosed",
    "Server",
    "Session",
    "ShardQueues",
    "coalesce",
]
