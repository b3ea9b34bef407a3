"""Entry point: pin the hash seed and the CPU, find ``src/``, run.

Counts only repeat exactly when set and dict iteration orders do, so the
process re-executes itself once with ``PYTHONHASHSEED=0``.

The process is pinned to one CPU.  Under the GIL one thread runs Python
at a time anyway, and on the 2-vCPU sandbox a thread wake-up that
crosses CPUs costs four to six times one that does not (a queue
round trip: 12 vs 70 us), in regimes that flip every few tens of
seconds and that no single-thread calibration can see; pinned, the
served workloads stop being bimodal.  A change that adds real
parallelism (a process per shard) has to revisit this.

The program under test is imported from the checkout's ``src/``
directory; in a directory without it the import fails and the exit
status is non-zero.
"""

import os
import sys

if hasattr(os, "sched_setaffinity"):
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass    # not allowed here: run unpinned, only noisier

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execvpe(sys.orig_argv[0], sys.orig_argv,
               dict(os.environ, PYTHONHASHSEED="0"))

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from .run import main  # noqa: E402  (needs src/ on the path)

sys.exit(main())
