"""The seven workloads, by name, in the order they are reported."""

from .common import Workload
from .embedded import EmbeddedChurn, EmbeddedRead, EmbeddedReadCold
from .recovery import RestartHeal, WalReplay
from .served import ServedIngest, ServedMixed

WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        EmbeddedRead(), EmbeddedReadCold(), EmbeddedChurn(), ServedMixed(),
        ServedIngest(), RestartHeal(), WalReplay())
}
