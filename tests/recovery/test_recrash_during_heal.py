"""Exhaustive crash-subset sweep over a background-heal completion sync.

Instant restart adds one new sync to the crash surface: the one a
:class:`~repro.shard.heal.HealQueue` runs when a shard's sweep reaches
its fixpoint, making the deferred repairs durable.  A shard that dies
*there* — mid-background-heal, while siblings are serving and healing —
must be isolated exactly like a recovery-time crash: siblings finish
healing, the victim is reported failed and stays gated, and a retry
admit pass heals it from whatever page subset the crash persisted.

The sweep enumerates every subset of the victim's heal-completion sync
batch (sampled past ``max_exhaustive``), the group analogue of the
single-engine exhaustive sweep — run once per subset against the same
deterministically rebuilt crashed group.
"""

import pytest

from repro import CrashError
from repro.shard import RecoveryOrchestrator
from repro.storage import CrashOnNthSync, RecordingPolicy, SubsetEnumerator
from repro.tools.fsck import fsck_group

from .helpers import build_crashed_group, tid_for

PAGE = 512
#: an ascending load leaves its last leaves four fifths full (DESIGN §5o);
#: this many keys give every crash seed a heal that repairs something
KEYS = 240
N_SHARDS = 3


def crashed_group(crash_seed):
    """The same group, crashed the same way, on every call."""
    return build_crashed_group(N_SHARDS, total_keys=KEYS, page_size=PAGE,
                               seed=19, uncommitted=60, sync_every=60,
                               crash_seed=crash_seed)


def admit(group):
    orchestrator = RecoveryOrchestrator(admit_immediately=True)
    return orchestrator.recover(group, "ix")


@pytest.mark.parametrize("crash_seed", [29, 31, 41])
def test_every_crash_subset_of_a_heal_completion_sync_recovers(crash_seed):
    committed = set(range(KEYS))

    # probe: learn each shard's heal-completion sync batch.  The heal
    # drive itself never syncs, so the first sync after admission is the
    # completion sync.  The victim is the shard whose heal dirtied the
    # most pages — the widest crash surface to enumerate.
    probe_group, probe_report = admit(crashed_group(crash_seed))
    recorders = [RecordingPolicy() for _ in range(N_SHARDS)]
    for index in range(N_SHARDS):
        probe_group.shard(index).crash_policy = recorders[index]
    probe_report.heal.drain()
    assert all(len(r.batches) == 1 for r in recorders), \
        "each shard's heal must sync exactly once"
    VICTIM = max(range(N_SHARDS),
                 key=lambda i: len(recorders[i].batches[0]))
    batch = recorders[VICTIM].batches[0]
    assert len(batch) >= 2, f"unexpected completion batch {batch}"

    subsets = list(SubsetEnumerator(batch, max_exhaustive=8,
                                    sample=100).subsets())
    for subset in subsets:
        if len(subset) == len(batch):
            continue  # that sync simply succeeds
        group, report = admit(crashed_group(crash_seed))
        heal = report.heal
        assert heal.pending_shards() == list(range(N_SHARDS))
        group.shard(VICTIM).crash_policy = CrashOnNthSync(
            1, keep=list(subset))

        # the victim dies at its completion sync; the crash reaches the
        # caller (owner-thread contract) and the shard is marked failed
        with pytest.raises(CrashError):
            heal.drain(VICTIM)
        assert heal.failed_shards() == [VICTIM]
        assert VICTIM in group.crashed_shards()

        # siblings keep healing to completion, unaffected
        heal.drain()
        assert heal.done and not heal.healed
        for index in range(N_SHARDS):
            if index != VICTIM:
                assert heal.progress()[index]["done"], (
                    f"subset {sorted(subset)}: sibling {index} not healed")

        # a retry admit pass heals the victim from the persisted subset
        group2, retry = admit(group)
        assert retry.heal is not None
        assert retry.heal.pending_shards() == [VICTIM]
        retry.heal.drain()
        assert retry.heal.healed, (
            f"subset {sorted(subset)}: {retry.heal.progress()}")

        assert fsck_group(group2).errors == 0
        scanned = {key for key, _ in retry.heal.tree.range_scan()}
        missing = [key for key in committed if key not in scanned]
        assert not missing, (
            f"subset {sorted(subset)} lost committed keys {missing[:10]}")
        # the healed group accepts and persists new work
        retry.heal.tree.insert(2_000_000, tid_for(7))
        assert group2.sync_all() == []
