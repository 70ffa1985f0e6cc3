"""The Unthrottled characterization bound.

Fills and writebacks teleport (no traffic, no latency).  This
configuration measures the *inherent* workload demand: the required
miss-handling bandwidth (RMHB) and LLC MPMS of Table I, which by
definition must be observable even beyond the off-package bandwidth the
real schemes would saturate.  (The Fig. 9 upper bound -- ``ideal``, a
"perfect NOMAD" with free OS routines but real copy traffic -- lives in
:mod:`repro.core.nomad`.)
"""

from __future__ import annotations

from typing import Callable

from repro.common.types import DC_SPACE_BIT, MemAccess, TrafficClass
from repro.config.system import SystemConfig
from repro.core.frontend import DataManager, FrontEnd
from repro.engine.simulator import Simulator
from repro.schemes.base import OSManagedScheme, is_dc_addr

class TeleportDataManager(DataManager):
    """Fills and writebacks that cost nothing and move nothing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.fills = 0
        self.writebacks = 0

    def fill(self, cfn, pfn, sub_block, on_offloaded, on_resume) -> None:
        self.fills += 1
        on_offloaded()
        on_resume(self.sim.now)

    def writeback(self, cfn, pfn, on_offloaded) -> None:
        self.writebacks += 1
        on_offloaded()


class UnthrottledScheme(OSManagedScheme):
    """Traffic-free OS-managed cache for Table I characterization."""

    scheme_name = "unthrottled"

    def __init__(self, sim: Simulator, cfg: SystemConfig):
        super().__init__(sim, cfg)
        self.data_manager = TeleportDataManager(sim)
        self.frontend = FrontEnd(
            sim,
            cfg,
            self.data_manager,
            self.page_tables,
            self.tables,
            self.hierarchy,
            self.hbm,
            use_mutex=False,
            tag_mgmt_latency=0,
            eviction_cost=0,
            flush_on_evict=False,
        )
        self.frontend.attach_tlbs(self.tlbs)

    def dc_access(self, access: MemAccess, fill_cb: Callable[[int], None]) -> None:
        start = self.sim.now
        paddr = access.paddr if access.paddr is not None else access.addr
        if is_dc_addr(paddr):
            def _done() -> None:
                end = self.sim.now
                self._record_dc_access(start, end)
                fill_cb(end)

            self.hbm.access(
                paddr & ~DC_SPACE_BIT, access.is_write, TrafficClass.DEMAND,
                callback=_done,
            )
        else:
            self.ddr.access(
                paddr, access.is_write, TrafficClass.DEMAND,
                callback=lambda: fill_cb(self.sim.now),
            )
