"""NOMAD: the assembled non-blocking OS-managed DRAM cache.

Ties the front-end OS routines (tag management via PTEs/TLBs, FIFO frame
allocation, background eviction) to the back-end hardware (PCSHRs, page
copy buffers) through the decoupled tag-data management contract of
Section III-A:

* a DC *tag* miss resumes the thread as soon as the tag is updated and
  the cache-fill command sits in a PCSHR;
* every DC access on a tag hit verifies the *data* hit against the PCSHR
  file; data misses are serviced from the page copy buffer or parked in
  sub-entries -- with no OS intervention, which is what makes the cache
  non-blocking.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.common.types import DC_SPACE_BIT, MemAccess, TrafficClass
from repro.config.schemes import BackendTopology, NomadConfig
from repro.config.system import SystemConfig
from repro.core.backend import Backend
from repro.core.distributed import DistributedBackend
from repro.core.frontend import FrontEnd
from repro.engine.simulator import Simulator
from repro.schemes.base import OSManagedScheme, is_dc_addr

_DEMAND = TrafficClass.DEMAND


class NomadScheme(OSManagedScheme):
    """The paper's proposal."""

    scheme_name = "nomad"

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        nomad_cfg: NomadConfig = NomadConfig(),
    ):
        super().__init__(sim, cfg)
        self.nomad_cfg = nomad_cfg
        if nomad_cfg.topology == BackendTopology.DISTRIBUTED:
            self.backend: Union[Backend, DistributedBackend] = DistributedBackend(
                sim, nomad_cfg, self.hbm, self.ddr
            )
        else:
            self.backend = Backend(sim, nomad_cfg, self.hbm, self.ddr)
        self.frontend = FrontEnd(
            sim,
            cfg,
            self.backend,
            self.page_tables,
            self.tables,
            self.hierarchy,
            self.hbm,
            use_mutex=nomad_cfg.frontend_mutex,
            tag_mgmt_latency=nomad_cfg.tag_mgmt_latency,
            eviction_threshold=nomad_cfg.eviction_threshold_frames,
            eviction_batch=nomad_cfg.eviction_batch,
            eviction_cost=nomad_cfg.eviction_cost_per_frame,
            assume_all_dirty=not nomad_cfg.dirty_in_cache_bits,
        )
        self.frontend.attach_tlbs(self.tlbs)
        self.uncached_accesses = 0
        # dc_access bindings: one probe per LLC miss.
        self._probe = self.backend.probe
        self._pcshr_lookup = nomad_cfg.pcshr_lookup_latency
        self._hbm_access = self.hbm.access
        self._ddr_access = self.ddr.access

    # -- DC access path (data-hit verification, Section III-D3) --------------

    def dc_access(self, access: MemAccess, fill_cb: Callable[[int], None]) -> None:
        start = self.sim.now
        paddr = access.paddr if access.paddr is not None else access.addr
        if not is_dc_addr(paddr):
            # Uncached page: behaves like the conventional memory system.
            self.uncached_accesses += 1
            self._ddr_access(
                paddr, access.is_write, _DEMAND,
                lambda: fill_cb(self.sim.now),
            )
            return

        hbm_addr = paddr & ~DC_SPACE_BIT
        cfn = hbm_addr >> 12
        lookup = self._pcshr_lookup
        pcshr = self._probe(cfn)

        if pcshr is None:
            # No matched tag: the whole page is resident (data hit).
            self.backend.note_data_hit()
            if access.is_write:
                self.frontend.cpds.dirty_in_cache[cfn] = 1

            def _done() -> None:
                end = self.sim.now + lookup
                self._record_dc_access(start, end)
                fill_cb(end)

            self._hbm_access(hbm_addr, access.is_write, _DEMAND, _done)
            return

        # Data miss: the page is still in transfer.
        sub = (hbm_addr >> 6) & 63
        if access.is_write:
            self.frontend.cpds.dirty_in_cache[cfn] = 1
            t = self.backend.write_data_miss(pcshr, sub) + lookup
            self.sim.schedule_at(t, lambda: fill_cb(t))
            self._record_dc_access(start, t)
            return

        def _read_done(t: int) -> None:
            end = t + lookup
            self._record_dc_access(start, end)
            fill_cb(end)

        self.backend.read_data_miss(pcshr, sub, _read_done)

    def dc_writeback(self, paddr: int) -> None:
        if not is_dc_addr(paddr):
            self.ddr.access(paddr, True, TrafficClass.DEMAND)
            return
        hbm_addr = paddr & ~DC_SPACE_BIT
        cfn = hbm_addr >> 12
        self.frontend.cpds.dirty_in_cache[cfn] = 1
        pcshr = self.backend.probe(cfn)
        if pcshr is not None:
            self.backend.write_data_miss(pcshr, (hbm_addr >> 6) & 63)
        else:
            self.hbm.access(hbm_addr, True, TrafficClass.DEMAND)

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict:
        return {**super().metrics(),
                "uncached_accesses": self.uncached_accesses}

    def buffer_hit_ratio(self) -> float:
        return self.backend.buffer_hit_ratio()


def _ideal_config() -> NomadConfig:
    return NomadConfig(
        num_pcshrs=1 << 16,
        num_copy_buffers=1 << 16,
        tag_mgmt_latency=0,
        eviction_cost_per_frame=0,
        pcshr_lookup_latency=0,
        copy_buffer_latency=0,
        frontend_mutex=False,
    )


class IdealScheme(NomadScheme):
    """The paper's Ideal upper bound: a "perfect NOMAD".

    OS routines cost nothing (no tag-management latency, no mutex, free
    eviction) and the back-end has effectively unlimited PCSHRs and page
    copy buffers -- but page copies still move real bytes through the
    DRAM devices and a data miss still waits for its sub-block, so
    performance is bounded only by memory-system physics.
    """

    scheme_name = "ideal"

    def __init__(self, sim: Simulator, cfg: SystemConfig):
        super().__init__(sim, cfg, _ideal_config())
