"""Key workload generators for benchmarks and tests.

The paper's Table 1 workload is "four-byte keys ... added in ascending
order so as to give worst-case split performance", then "8,000 random
keys ... uniformly distributed throughout the range represented in the
index".  Additional orders (descending, random permutation, skewed,
duplicate-heavy) feed the extension benchmarks and property tests.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, Sequence

from ..core.keys import UInt32Codec, make_unique


def ascending(n: int, start: int = 0, step: int = 1) -> Iterator[int]:
    """The paper's worst-case insertion order."""
    return iter(range(start, start + n * step, step))


def descending(n: int, start: int | None = None,
               step: int = 1) -> Iterator[int]:
    if start is None:
        start = n * step
    return iter(range(start, start - n * step, -step))


def random_permutation(n: int, seed: int = 0) -> list[int]:
    """Every key in [0, n), shuffled — the classic ~69 % fill workload."""
    keys = list(range(n))
    random.Random(seed).shuffle(keys)
    return keys


def uniform_lookups(n_lookups: int, key_space: int,
                    seed: int = 0) -> list[int]:
    """The paper's lookup workload: uniformly distributed keys throughout
    the range represented in the index."""
    rng = random.Random(seed)
    return [rng.randrange(key_space) for _ in range(n_lookups)]


def skewed(n: int, *, hot_fraction: float = 0.1,
           hot_probability: float = 0.9, key_space: int | None = None,
           seed: int = 0) -> list[int]:
    """Zipf-ish: *hot_probability* of draws land in the first
    *hot_fraction* of the key space.  Returns distinct keys."""
    if key_space is None:
        key_space = max(n * 4, 16)
    rng = random.Random(seed)
    hot_limit = max(int(key_space * hot_fraction), 1)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < n:
        if rng.random() < hot_probability:
            key = rng.randrange(hot_limit)
        else:
            key = rng.randrange(hot_limit, key_space)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _zipf_cdf(key_space: int, theta: float) -> list[float]:
    """Cumulative Zipf(theta) weights over ranks 1..key_space."""
    total = 0.0
    cdf = []
    for rank in range(1, key_space + 1):
        total += 1.0 / rank ** theta
        cdf.append(total)
    return cdf


def zipfian(n_draws: int, key_space: int, *, theta: float = 0.99,
            seed: int = 0) -> list[int]:
    """*n_draws* keys from a Zipf(theta) distribution over
    ``[0, key_space)`` — the YCSB-style skew (theta 0.99 by default;
    0 degenerates to uniform).

    Rank *r* maps to key ``(r * 2654435761) % key_space`` rather than to
    ``r`` itself, so the hottest keys are scattered across the key
    *space*: skew stresses whatever sits below (a shard router, a buffer
    pool) without the accident of also clustering at the left edge of the
    index.  Draws repeat — this models lookup/update traffic, not unique
    loads (see :func:`zipfian_keys` for those).
    """
    if key_space < 1:
        raise ValueError(f"key_space must be >= 1, got {key_space}")
    cdf = _zipf_cdf(key_space, theta)
    total = cdf[-1]
    rng = random.Random(seed)
    out = []
    for _ in range(n_draws):
        rank = bisect.bisect_left(cdf, rng.random() * total)
        out.append((rank * 2654435761) % key_space)
    return out


def zipfian_keys(n: int, *, theta: float = 0.99,
                 key_space: int | None = None, seed: int = 0) -> list[int]:
    """*n* **distinct** keys drawn in Zipfian order — an insert load
    whose arrival order is skewed (hot region first, long tail later)
    while every key is still unique."""
    if key_space is None:
        key_space = max(n * 4, 16)
    if key_space < n:
        raise ValueError(f"key_space {key_space} cannot supply {n} "
                         "distinct keys")
    seen: set[int] = set()
    out: list[int] = []
    # draw in growing batches until n distinct keys have arrived; the
    # itertools.count index keeps each batch's stream deterministic
    for round_no in itertools.count():
        draws = zipfian(max(n, 16) * (round_no + 1), key_space,
                        theta=theta, seed=seed * 31 + round_no)
        for key in draws:
            if key not in seen:
                seen.add(key)
                out.append(key)
                if len(out) == n:
                    return out
        if len(seen) == key_space:  # pragma: no cover - guarded above
            break
    return out


def mixed_ops(n_ops: int, key_space: int, *,
              read_fraction: float = 0.5, theta: float = 0.99,
              seed: int = 0) -> list[tuple[str, int]]:
    """pgbench-style mixed traffic: *n_ops* ``("read", key)`` /
    ``("update", key)`` pairs over a Zipfian key stream.

    Each op independently reads with probability *read_fraction* and
    updates otherwise; keys come from :func:`zipfian` so the hot set is
    hammered by readers and writers alike — the contention profile a
    serving layer's batching and group commit actually face.  Updates
    are upserts (the key may or may not exist yet), matching pgbench's
    UPDATE-by-primary-key against a preloaded table.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(
            f"read_fraction must be in [0, 1], got {read_fraction}")
    keys = zipfian(n_ops, key_space, theta=theta, seed=seed)
    # decorrelate the op coin from the key stream: same keys, different
    # read/write colouring per seed
    coin = random.Random(seed * 0x9E3779B1 + 1)
    return [("read" if coin.random() < read_fraction else "update", key)
            for key in keys]


def duplicate_values(n: int, *, distinct: int = 100,
                     seed: int = 0) -> list[bytes]:
    """Duplicate-heavy workload already rewritten as unique
    ``<value, object_id>`` composites (paper Section 2): *n* keys over
    only *distinct* underlying values."""
    rng = random.Random(seed)
    codec = UInt32Codec()
    return [make_unique(codec.encode(rng.randrange(distinct)), oid)
            for oid in range(n)]


def interleaved_batches(orders: Sequence[Sequence[int]],
                        batch: int = 10) -> Iterator[int]:
    """Round-robin merge of several key streams in batches — models
    concurrent loaders hitting one index."""
    iters = [iter(o) for o in orders]
    alive = list(range(len(iters)))
    while alive:
        for idx in list(alive):
            emitted = 0
            for key in iters[idx]:
                yield key
                emitted += 1
                if emitted >= batch:
                    break
            if emitted < batch:
                alive.remove(idx)
