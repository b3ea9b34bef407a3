"""The repair sweep's unit order: hottest first, ties toward the smallest
key, a cold sweep ascending — checked against the definition it replaces
(a full scan for the maximum before every pop) under random promotions."""

import random

import pytest

from repro.core import RepairSweep


class StubTree:
    """Just what a sweep touches: units, a repair log, an empty leaf
    chain."""

    def __init__(self, units):
        self.units = units
        self.repair_log = []
        self.healed = []

    def repair_units(self):
        return list(self.units)

    def heal_unit(self, key):
        self.healed.append(key)
        return 0

    def walk_leaf_chain(self):
        return 0


def units(n):
    return [b""] + [i.to_bytes(2, "big") for i in range(1, n)]


def test_cold_sweep_is_ascending():
    tree = StubTree(units(50))
    sweep = RepairSweep(tree)
    while not sweep.done:
        sweep.step(7)
    assert tree.healed == tree.units
    assert sweep.units_done == 50 and sweep.passes == 1


@pytest.mark.parametrize("seed", range(5))
def test_order_matches_a_scan_for_the_maximum(seed):
    rng = random.Random(seed)
    tree = StubTree(units(120))
    sweep = RepairSweep(tree)
    # accesses before the first step count too
    early = [rng.choice(tree.units) + b"\x00" for _ in range(30)]
    for key in early:
        sweep.promote(key)
    hits = {u: 0 for u in tree.units}
    for key in early:
        hits[sweep_cover(tree.units, key)] += 1
    pending = list(tree.units)
    expected = []
    while pending:
        for _ in range(rng.randrange(4)):
            key = rng.choice(tree.units) + b"\x07"
            sweep.promote(key)
            hits[sweep_cover(tree.units, key)] += 1
        best = max(pending, key=lambda u: hits[u])   # first maximum
        pending.remove(best)
        expected.append(best)
        assert sweep.step(1) == 1
        assert sweep.pending() == len(pending)
    assert tree.healed == expected


def test_promotions_between_steps_do_not_grow_the_heap():
    tree = StubTree(units(20))
    sweep = RepairSweep(tree)
    sweep.step(1)                                   # seeds, heals b""
    rng = random.Random(3)
    hits = {u: 0 for u in tree.units}
    for _ in range(2000):
        key = rng.choice(tree.units[5:]) + b"\x01"
        sweep.promote(key)
        hits[sweep_cover(tree.units, key)] += 1
        assert len(sweep._heap) <= 2 * len(tree.units)
    while not sweep.done:
        sweep.step(3)
    assert tree.healed[1:] == sorted(tree.units[1:],
                                     key=lambda u: (-hits[u], u))


def sweep_cover(sorted_units, key):
    return max(u for u in sorted_units if u <= key)
