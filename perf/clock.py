"""The speed-normalised clock every workload is timed with.

The sandbox's CPU speed drifts by ±25% or more within seconds (a fixed
pure-Python kernel takes anywhere between 6 and 19 ms inside one 20 s
window), so wall-clock alone cannot repeat within a tenth.  Every
measured phase is therefore cut into short *segments*, and a fixed
calibration kernel runs between segments while the clients are parked.
For one segment::

    T_norm = (T_wall - T_cpu) + T_cpu * (CALIB_REF_MS / calib_ms)

``T_cpu`` comes from ``time.process_time()``: only CPU time is rescaled,
so timers (the group-commit window, the simulated sync barrier) keep
their real length.  Every duration sampled inside a segment is
multiplied by that segment's ``T_norm / T_wall``.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from statistics import median
from time import perf_counter, process_time

#: What the calibration kernel is defined to cost.  A machine on which
#: the kernel takes twice this long has its CPU time halved.
CALIB_REF_MS = 8.0

#: Iterations of the kernel loop (about 8 ms on the reference sandbox).
_CALIB_ITERS = 22_000

#: A calibration older than this is repeated before the next segment.
_CALIB_MAX_AGE_S = 0.05

_RECORD = struct.Struct("<HI")
_PAGE = bytes(range(256)) * 4
_SORTED = sorted((i * 2654435761) % (1 << 30) for i in range(512))
_TABLE = {i: i for i in range(64)}


class _Probe:
    def step(self, value: int) -> int:
        return value + 1


def calibrate() -> float:
    """Run the fixed kernel — struct unpack, bisect, method call, dict
    get, the instruction mix of a tree descent — and return its wall
    time in milliseconds."""
    unpack = _RECORD.unpack_from
    search = bisect.bisect_right
    get = _TABLE.get
    step = _Probe().step
    acc = 0
    started = perf_counter()
    for i in range(_CALIB_ITERS):
        _, word = unpack(_PAGE, (i * 6) & 511)
        acc += search(_SORTED, word & 0x3FFFFFFF)
        acc = step(acc)
        get(i & 63)
    return (perf_counter() - started) * 1e3


@dataclass
class Segment:
    """One timed slice of a measured phase."""

    wall: float       # seconds
    cpu: float        # seconds of process CPU time
    calib_ms: float   # mean of the calibrations on either side

    @property
    def norm(self) -> float:
        """The segment's length in normalised seconds."""
        busy = min(self.cpu, self.wall)
        return (self.wall - busy) + busy * (CALIB_REF_MS / self.calib_ms)

    @property
    def scale(self) -> float:
        """Multiply a duration sampled in this segment by this."""
        return self.norm / self.wall if self.wall > 0 else 1.0


class Clock:
    """Times segments between calibrations and remembers them, so the
    harness can report the machine-speed probe and the CPU share of the
    measured phase beside the metrics."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self._calib_ms = calibrate()
        self._calib_at = perf_counter()

    def measure(self, fn):
        """Run ``fn()`` as one segment; returns ``(fn's result, segment)``.
        Call with every client thread parked: the calibration kernel runs
        on the calling thread before and after."""
        if perf_counter() - self._calib_at > _CALIB_MAX_AGE_S:
            self._calib_ms = calibrate()
        before = self._calib_ms
        wall0, cpu0 = perf_counter(), process_time()
        result = fn()
        wall1, cpu1 = perf_counter(), process_time()
        self._calib_ms = calibrate()
        self._calib_at = perf_counter()
        segment = Segment(wall=wall1 - wall0, cpu=cpu1 - cpu0,
                          calib_ms=(before + self._calib_ms) / 2)
        self.segments.append(segment)
        return result, segment

    def calib_ms(self) -> float:
        """Median machine-speed probe over the segments measured so far."""
        return median(s.calib_ms for s in self.segments) \
            if self.segments else self._calib_ms

    def cpu_share(self) -> float:
        """CPU seconds per wall second over the measured segments."""
        wall = sum(s.wall for s in self.segments)
        return sum(s.cpu for s in self.segments) / wall if wall else 0.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (``q`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
