"""TDC: the state-of-the-art *blocking* OS-managed DRAM cache.

Implemented, as the paper does (Section IV-A), like the NOMAD front-end
minus the non-blocking machinery: the DC tag miss handler performs the
page copy itself and only resumes the application thread when the copy
has fully landed in the DRAM cache.  There is no global frame-management
mutex penalty (TDC locks only the critical PTEs), so its tag-management
latency is the flat 400 cycles -- its weakness is the thousands of
cycles of blocking copy, which scales with the workload's required
miss-handling bandwidth (RMHB).
"""

from __future__ import annotations

from typing import Callable, Dict, Set

from repro.common.types import (
    DC_SPACE_BIT,
    MemAccess,
    PAGE_SIZE,
    SUB_BLOCKS_PER_PAGE,
    TrafficClass,
)
from repro.config.schemes import TDCConfig
from repro.config.system import SystemConfig
from repro.core.frontend import DataManager, FrontEnd
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Simulator
from repro.schemes.base import OSManagedScheme, is_dc_addr

_DEMAND = TrafficClass.DEMAND
_PAGE_SUBS = range(SUB_BLOCKS_PER_PAGE)


class BlockingCopyManager(DataManager):
    """Page copies executed synchronously by the OS on the faulting CPU."""

    # Telemetry tracer hook (repro.telemetry); instance attr when armed.
    _tel = None

    def __init__(self, sim: Simulator, hbm: DRAMDevice, ddr: DRAMDevice):
        self.sim = sim
        self.hbm = hbm
        self.ddr = ddr
        self._busy_fills: Set[int] = set()
        self.fills = 0
        self.writebacks = 0

    def fill(self, cfn, pfn, sub_block, on_offloaded, on_resume) -> None:
        """Copy the page in; the thread resumes only when it is done."""
        self.fills += 1
        self._busy_fills.add(cfn)
        if self._tel is not None:
            self._tel.copy_begin(
                ("tdc", cfn), "fill", self.sim.now,
                {"cfn": cfn, "pfn": pfn},
            )
        on_offloaded()
        arrivals = self.ddr.transfer(
            pfn * PAGE_SIZE, _PAGE_SUBS, False, TrafficClass.FILL
        )

        def _drain() -> None:
            done = max(self.hbm.transfer(
                cfn * PAGE_SIZE, _PAGE_SUBS, True, TrafficClass.FILL
            ))
            self.sim.schedule_at(done, lambda: self._fill_done(cfn, done, on_resume))

        self.sim.schedule_at(max(arrivals), _drain)

    def _fill_done(self, cfn: int, t: int, on_resume: Callable[[int], None]) -> None:
        self._busy_fills.discard(cfn)
        if self._tel is not None:
            self._tel.copy_end(("tdc", cfn), self.sim.now)
        on_resume(t)

    def writeback(self, cfn, pfn, on_offloaded) -> None:
        """Copy-out runs on a kernel thread; the daemon does not wait."""
        self.writebacks += 1
        if self._tel is not None:
            self._tel.copy_begin(
                ("tdc-wb", cfn), "writeback", self.sim.now,
                {"cfn": cfn, "pfn": pfn},
            )
        arrivals = self.hbm.transfer(
            cfn * PAGE_SIZE, _PAGE_SUBS, False, TrafficClass.WRITEBACK
        )

        def _drain() -> None:
            ends = self.ddr.transfer(
                pfn * PAGE_SIZE, _PAGE_SUBS, True, TrafficClass.WRITEBACK
            )
            if self._tel is not None:
                self._tel.copy_end(("tdc-wb", cfn), max(ends))

        self.sim.schedule_at(max(arrivals), _drain)
        on_offloaded()

    def frame_busy(self, cfn: int) -> bool:
        return cfn in self._busy_fills


class TDCScheme(OSManagedScheme):
    """Blocking OS-managed (tagless) DRAM cache."""

    scheme_name = "tdc"

    def __init__(
        self, sim: Simulator, cfg: SystemConfig, tdc_cfg: TDCConfig = TDCConfig()
    ):
        super().__init__(sim, cfg)
        self.tdc_cfg = tdc_cfg
        self.data_manager = BlockingCopyManager(sim, self.hbm, self.ddr)
        self.frontend = FrontEnd(
            sim,
            cfg,
            self.data_manager,
            self.page_tables,
            self.tables,
            self.hierarchy,
            self.hbm,
            use_mutex=False,
            tag_mgmt_latency=tdc_cfg.tag_mgmt_latency,
            eviction_threshold=tdc_cfg.eviction_threshold_frames,
            eviction_batch=tdc_cfg.eviction_batch,
            eviction_cost=tdc_cfg.eviction_cost_per_frame,
            assume_all_dirty=not tdc_cfg.dirty_in_cache_bits,
        )
        self.frontend.attach_tlbs(self.tlbs)
        # dc_access bindings: one DC probe + CPD poke per LLC miss.
        self._cpd_list = self.frontend.cpds._cpds
        self._hbm_access = self.hbm.access
        self._ddr_access = self.ddr.access

    def dc_access(self, access: MemAccess, fill_cb: Callable[[int], None]) -> None:
        """Tag hits guarantee data hits: the DC access goes straight in."""
        start = self.sim.now
        paddr = access.paddr if access.paddr is not None else access.addr
        if is_dc_addr(paddr):
            hbm_addr = paddr & ~DC_SPACE_BIT
            if access.is_write:
                self._cpd_list[hbm_addr >> 12].dirty_in_cache = True

            def _done() -> None:
                end = self.sim.now
                self._record_dc_access(start, end)
                fill_cb(end)

            self._hbm_access(hbm_addr, access.is_write, _DEMAND, _done)
        else:
            self._ddr_access(
                paddr, access.is_write, _DEMAND,
                lambda: fill_cb(self.sim.now),
            )

    def dc_writeback(self, paddr: int) -> None:
        if is_dc_addr(paddr):
            hbm_addr = paddr & ~DC_SPACE_BIT
            self.frontend.cpds[hbm_addr >> 12].dirty_in_cache = True
            self.hbm.access(hbm_addr, True, TrafficClass.DEMAND)
        else:
            self.ddr.access(paddr, True, TrafficClass.DEMAND)
