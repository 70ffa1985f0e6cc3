"""One memory controller per DRAM channel: its banks, its data bus, and
its statistics.

The controller combines the bank-side ready time with the shared data
bus: a burst occupies the bus for ``tburst`` cycles, so a saturated
channel naturally queues requests and per-request latency grows -- the
effect behind the paper's Excess/Tight/Loose/Few RMHB classes.

Service times are computed at issue (first-come-first-served with
open-page row-buffer state) by :meth:`DRAMDevice.transfer
<repro.dram.device.DRAMDevice.transfer>`, which owns the arithmetic and
updates this object's plain int counters; they are flushed into the
:class:`StatGroup` only when it is read (see :meth:`StatGroup.set_sync`).
FR-FCFS reordering is approximated: sequential streams (page copies,
line fills) arrive in row order and therefore still enjoy the row-buffer
hits an FR-FCFS scheduler would create.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.types import TrafficClass
from repro.dram.bank import Bank
from repro.engine.simulator import Component, Simulator


class ChannelController(Component):
    """One channel's banks, data-bus occupancy and traffic counters."""

    def __init__(self, sim: Simulator, name: str, num_banks: int):
        super().__init__(sim, name)
        self.banks = [Bank() for _ in range(num_banks)]
        self.bus_free_at = 0
        # Hot-path counters (flushed lazily into self.stats).
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0
        self.reads = 0
        self.writes = 0
        self.bytes_by_class: Dict[TrafficClass, int] = {}
        self._lat_count = 0
        self._lat_total = 0
        self._lat_min: Optional[int] = None
        self._lat_max: Optional[int] = None
        self.stats.counter("row_hits")
        self.stats.counter("row_closed")
        self.stats.counter("row_conflicts")
        self.stats.counter("reads")
        self.stats.counter("writes")
        self.stats.bandwidth("bytes")
        self.stats.mean("burst_latency")
        self.stats.set_sync(self._sync_stats)

    def _sync_stats(self) -> None:
        stats = self.stats._stats
        stats["row_hits"].value = self.row_hits
        stats["row_closed"].value = self.row_closed
        stats["row_conflicts"].value = self.row_conflicts
        stats["reads"].value = self.reads
        stats["writes"].value = self.writes
        bw = stats["bytes"]
        for tc, b in self.bytes_by_class.items():
            bw.bytes_by_class[tc] = b
        lat = stats["burst_latency"]
        lat.count = self._lat_count
        lat.total = self._lat_total
        lat.min = self._lat_min
        lat.max = self._lat_max

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_closed + self.row_conflicts
        return self.row_hits / total if total else 0.0
