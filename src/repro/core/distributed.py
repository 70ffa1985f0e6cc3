"""Distributed back-ends (paper Section III-F, Fig. 8b).

One back-end per on-package DRAM channel; page copy commands route by a
few CFN bits.  Because the front-end allocates cache frames sequentially
(FIFO), commands spread uniformly across the back-ends, which is why the
paper finds distributed and centralized designs perform alike (Fig. 16).

The total PCSHR/buffer budget is split evenly across the back-ends.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config.schemes import NomadConfig
from repro.core.backend import Backend
from repro.core.frontend import DataManager
from repro.core.pcshr import PCSHR
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Simulator


class DistributedBackend(DataManager):
    """Routes commands and probes to per-channel back-ends by CFN."""

    def __init__(
        self,
        sim: Simulator,
        cfg: NomadConfig,
        hbm: DRAMDevice,
        ddr: DRAMDevice,
        num_backends: Optional[int] = None,
    ):
        self.cfg = cfg
        k = num_backends if num_backends is not None else hbm.cfg.num_channels
        if k <= 0:
            raise ValueError(f"need at least one back-end, got {k}")
        per_pcshrs = max(1, cfg.num_pcshrs // k)
        per_buffers = max(1, cfg.resolved_copy_buffers() // k)
        self.backends: List[Backend] = [
            Backend(
                sim, cfg, hbm, ddr,
                name=f"backend{i}",
                num_pcshrs=per_pcshrs,
                num_buffers=per_buffers,
            )
            for i in range(k)
        ]

    def _route(self, cfn: int) -> Backend:
        return self.backends[cfn % len(self.backends)]

    # -- DataManager ---------------------------------------------------------

    def fill(self, cfn, pfn, sub_block, on_offloaded, on_resume) -> None:
        self._route(cfn).fill(cfn, pfn, sub_block, on_offloaded, on_resume)

    def writeback(self, cfn, pfn, on_offloaded) -> None:
        self._route(cfn).writeback(cfn, pfn, on_offloaded)

    def frame_busy(self, cfn: int) -> bool:
        return self._route(cfn).frame_busy(cfn)

    # -- data-hit verification -------------------------------------------------

    def probe(self, cfn: int) -> Optional[PCSHR]:
        return self._route(cfn).probe(cfn)

    def note_data_hit(self) -> None:
        self.backends[0].note_data_hit()

    def read_data_miss(self, pcshr: PCSHR, sub: int, done: Callable[[int], None]) -> None:
        self._route(pcshr.cfn).read_data_miss(pcshr, sub, done)

    def write_data_miss(self, pcshr: PCSHR, sub: int) -> int:
        return self._route(pcshr.cfn).write_data_miss(pcshr, sub)

    # -- reporting ----------------------------------------------------------

    def buffer_hit_ratio(self) -> float:
        served = sum(b.buffer_hits + b.buffer_write_merges
                     for b in self.backends)
        waits = sum(b.sub_entry_waits for b in self.backends)
        total = served + waits
        return served / total if total else 0.0

    def command_wait_mean(self) -> float:
        total = sum(b.command_wait.total for b in self.backends)
        count = sum(b.command_wait.count for b in self.backends)
        return total / count if count else 0.0
