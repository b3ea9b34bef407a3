"""The reference model every workload's answers are checked against.

A :class:`Model` is a plain dict of what must be true.  ``live`` follows
every write the workload issued; ``durable`` follows only the writes a
completed durability point (``engine.sync()`` / ``Session.commit()``)
acknowledged.  The gap between the two is what a crash may legally lose.

A :class:`Tally` counts what was attempted and what failed — wrong
answers, errors, ``Overloaded`` refusals, failed recoveries and lost
acknowledged writes — so a failure is never silently dropped from a
timing.
"""

from __future__ import annotations

from collections import Counter


class Tally:
    """Attempted / failed counts, with the failures kept by reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        if n:
            self.failed += n
            self.reasons[reason] += n


class Model:
    """Key → TID reference state for one client's share of an index."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.live: dict[int, object] = {}
        self.durable: dict[int, object] = {}
        #: keys written since the last acknowledged durability point
        self.unacked: set[int] = set()
        #: keys whose acknowledged state is "deleted"
        self.gone: set[int] = set()

    def load(self, pairs) -> None:
        """Adopt *pairs* as both the live and the durable state (the
        synced initial load)."""
        loaded = dict(pairs)
        self.live.update(loaded)
        self.durable.update(loaded)

    # -- writes the workload issued ------------------------------------

    def put(self, key: int, tid: object) -> None:
        self.live[key] = tid
        self.unacked.add(key)

    def remove(self, key: int) -> None:
        self.live.pop(key, None)
        self.unacked.add(key)

    def acked(self) -> None:
        """A durability point covering every write so far completed."""
        live, durable = self.live, self.durable
        for key in self.unacked:
            if key in live:
                durable[key] = live[key]
                self.gone.discard(key)
            else:
                durable.pop(key, None)
                self.gone.add(key)
        self.unacked.clear()

    # -- answers the program gave --------------------------------------

    def check_lookup(self, key: int, got: object) -> None:
        self.tally.attempted += 1
        if got != self.live.get(key):
            self.tally.fail("wrong_lookup")

    def check_replaced(self, key: int, replaced: object) -> None:
        """``update`` reports whether it replaced an entry; call before
        :meth:`put`."""
        self.tally.attempted += 1
        if bool(replaced) != (key in self.live):
            self.tally.fail("wrong_replaced_flag")


def verify_scan(models: list[Model], scanned, tally: Tally) -> None:
    """A full ``range_scan`` of the live index must equal the union of
    the models' live state, in key order."""
    expected: dict[int, object] = {}
    for model in models:
        expected.update(model.live)
    pairs = list(scanned)
    tally.attempt(len(expected))
    keys = [key for key, _ in pairs]
    if keys != sorted(keys):
        tally.fail("scan_out_of_order")
    got = dict(pairs)
    wrong = sum(1 for key, tid in expected.items() if got.get(key) != tid)
    tally.fail("scan_mismatch", wrong + len(got.keys() - expected.keys()))


def lost_acked_keys(models: list[Model], scanned, tally: Tally) -> int:
    """Compare an index recovered from crashed disks with what was
    acknowledged durable.

    Counted as lost: an acknowledged insert/update that is missing or
    carries another TID, and an acknowledged delete that is still
    present.  A key written again after its last acknowledgement may
    legally hold either value (the crash decided), and an
    unacknowledged key may be present or absent; anything else in the
    scan is a phantom and counts as a failure.
    """
    got = dict(scanned)
    lost = phantoms = checked = 0
    for model in models:
        unacked, live = model.unacked, model.live
        for key, tid in model.durable.items():
            checked += 1
            have = got.pop(key, None)
            if have == tid:
                continue
            if key in unacked and have == live.get(key):
                continue
            lost += 1
        for key in unacked:
            if key in model.durable:
                continue
            have = got.pop(key, None)
            if have is not None and have != live.get(key):
                phantoms += 1
    for key in got:
        if any(key in model.gone for model in models):
            lost += 1
        else:
            phantoms += 1
    tally.attempt(checked)
    tally.fail("lost_acked_key", lost)
    tally.fail("phantom_key", phantoms)
    return lost
