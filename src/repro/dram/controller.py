"""One memory controller per DRAM channel: its banks, its data bus, and
its statistics.

The controller combines the bank-side ready time with the shared data
bus: a burst occupies the bus for ``tburst`` cycles, so a saturated
channel naturally queues requests and per-request latency grows -- the
effect behind the paper's Excess/Tight/Loose/Few RMHB classes.

Service times are computed at issue (first-come-first-served with
open-page row-buffer state) by :meth:`DRAMDevice.transfer
<repro.dram.device.DRAMDevice.transfer>`, which owns the arithmetic and
updates this object's plain int counters, which :meth:`metrics`
reports.  FR-FCFS reordering is approximated: sequential streams (page
copies, line fills) arrive in row order and therefore still enjoy the
row-buffer hits an FR-FCFS scheduler would create.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.stats import mean_stats
from repro.common.types import TrafficClass
from repro.dram.bank import Bank
from repro.engine.simulator import Component, Simulator


class ChannelController(Component):
    """One channel's banks, data-bus occupancy and traffic counters."""

    def __init__(self, sim: Simulator, name: str, num_banks: int):
        super().__init__(sim, name)
        self.banks = [Bank() for _ in range(num_banks)]
        self.bus_free_at = 0
        # Hot-path counters, bumped by DRAMDevice.transfer.
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0
        self.reads = 0
        self.writes = 0
        self.bytes_by_class: Dict[TrafficClass, int] = {}
        self._lat_count = 0
        self._lat_total = 0
        self._lat_max: Optional[int] = None

    def metrics(self) -> dict:
        by_class = self.bytes_by_class
        return {
            "row_hits": self.row_hits,
            "row_closed": self.row_closed,
            "row_conflicts": self.row_conflicts,
            "reads": self.reads,
            "writes": self.writes,
            "bytes.total_bytes": sum(by_class.values()),
            **{f"bytes.{tc.name}": b for tc, b in by_class.items()},
            **mean_stats("burst_latency", self._lat_count, self._lat_total,
                         self._lat_max),
        }

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_closed + self.row_conflicts
        return self.row_hits / total if total else 0.0
