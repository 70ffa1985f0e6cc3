"""NOMAD front-end OS routines (paper Section III-C).

Two routines manage cache frames FIFO over a circular free queue:

* the **DC tag miss handler** (Algorithm 1) runs when a page walk finds a
  cacheable-but-uncached page: find a free frame from the head, offload a
  cache-fill command to the data manager (the NOMAD back-end; a blocking
  copy engine for TDC; a no-op for Ideal), update the CPD, the frame's C
  bit and the PTEs, and resume the thread;
* the **background eviction daemon** (Algorithm 2) reclaims frames from
  the tail when free frames drop below a threshold: it skips TLB-resident
  frames (shootdown avoidance via the CPD TLB directory), flushes the
  victims' SRAM lines, offloads writebacks for dirty frames, and restores
  PTEs through the reverse map.

The warmup fast-forward (:meth:`FrontEnd.warm_fills`) runs the same
frame allocation and tag commit for a whole build's pages in one pass,
at zero cost, with a functional stand-in for the daemon.

The whole frame-management path is a critical section (one mutex); the
observed tag-management latency therefore grows with contention, which is
the effect Figs. 11 and 14 quantify.  TDC is built from this same
front-end with ``use_mutex=False`` (it locks only critical PTEs) and a
blocking data manager.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.inline_state import InlineState
from repro.common.stats import Mean, mean_stats
from repro.common.types import DC_SPACE_BIT, TrafficClass, sub_block_of
from repro.config.system import SystemConfig
from repro.core.free_queue import FreeQueue
from repro.engine.simulator import Component, Simulator
from repro.engine.sync import Mutex
from repro.vm.descriptors import CPDArray
from repro.vm.page_table import PTE_C, PTE_NC, frame_of

# Cost of a forced TLB shootdown (inter-processor interrupts + waits);
# only paid on the rare fallback path when proactive eviction cannot make
# progress because every tail frame is TLB-resident.
TLB_SHOOTDOWN_COST = 4000


class DataManager(InlineState):
    """What the front-end offloads data movement to.

    ``fill``/``writeback`` take two callbacks:

    * ``on_offloaded()`` fires (at simulated time) when the command has
      been *accepted* -- for NOMAD this is when a PCSHR was allocated
      (the OS spins on the busy interface until then, still holding the
      mutex);
    * ``on_resume(t)`` fires when the application thread may continue --
      immediately after acceptance for NOMAD (non-blocking), only after
      the whole page copy for TDC (blocking).
    """

    def fill(self, cfn: int, pfn: int, sub_block: int,
             on_offloaded: Callable[[], None],
             on_resume: Callable[[int], None]) -> None:
        raise NotImplementedError

    def writeback(self, cfn: int, pfn: int,
                  on_offloaded: Callable[[], None]) -> None:
        raise NotImplementedError

    def frame_busy(self, cfn: int) -> bool:
        """True while a fill for ``cfn`` is still in flight."""
        return False


class EvictionCounters:
    """The eviction daemon's counters, one slot per ``metrics()`` key.

    Kept off the front-end itself so its attributes stay within
    CPython's inline-attribute limit (see ``repro.common.inline_state``)
    also when the telemetry hook is armed.
    """

    __slots__ = ("evictions", "writeback_commands", "eviction_tlb_skips",
                 "eviction_busy_skips", "forced_shootdowns",
                 "flushed_dirty_lines")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class FrontEnd(Component):
    """Cache-frame management: tag miss handler + eviction daemon."""

    # Telemetry tracer hook (repro.telemetry); instance attr when armed.
    _tel = None

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        data_manager: DataManager,
        page_tables,
        tables,
        hierarchy,
        hbm,
        *,
        use_mutex: bool = True,
        tag_mgmt_latency: int = 400,
        eviction_threshold: int = 256,
        eviction_batch: int = 64,
        eviction_cost: int = 30,
        flush_on_evict: bool = True,
        assume_all_dirty: bool = False,
    ):
        super().__init__(sim, "frontend")
        self.data_manager = data_manager
        self.page_tables = page_tables
        self.tables = tables
        self.hierarchy = hierarchy
        self.hbm = hbm
        self.cpds = CPDArray(cfg.dc_pages)
        self.free_queue = FreeQueue(cfg.dc_pages)
        self.mutex: Optional[Mutex] = Mutex(sim, "frame_mgmt") if use_mutex else None
        self.tag_mgmt_latency = tag_mgmt_latency
        self.eviction_threshold = eviction_threshold
        self.eviction_batch = eviction_batch
        self.eviction_cost = eviction_cost
        self.flush_on_evict = flush_on_evict
        # Ablation of the dirty-in-cache (DC) bits: without them the OS
        # cannot tell clean frames apart and must write back every victim.
        self.assume_all_dirty = assume_all_dirty

        self._daemon_running = False
        #: Frames taken off the free queue by a fill whose tags are not
        #: committed yet (the CPD is still invalid); the guard's frame
        #: accounting counts them as in use.
        self.filling_frames = 0
        self._frame_waiters: List[Callable[[], None]] = []
        self._tlbs = None
        self._evict_remaining = 0
        self._batch_freed = 0

        #: Tag-management latency of every timed fill; its count is the
        #: number of fills.
        self.tag_latency = Mean()
        self.counts = EvictionCounters()

    # ------------------------------------------------------------------
    # DC tag miss handler (Algorithm 1)
    # ------------------------------------------------------------------

    def handle_tag_miss(
        self,
        core_id: int,
        vpn: int,
        addr: int,
        done: Callable[[int], None],
    ) -> None:
        """Resolve a DC tag miss; ``done(resume_time)`` fires when the
        application thread may continue."""
        t0 = self.sim.now
        page_table = self.page_tables[core_id]
        if self._tel is not None:
            tel, inner = self._tel, done

            def done(t: int, _tel=tel, _inner=inner) -> None:
                _tel.os_span(f"core{core_id}", "tag_miss", t0, t - t0)
                _inner(t)


        def _with_mutex():
            # Two serialized on-package reads + sync overhead (~400 cyc).
            self.sim.schedule(self.tag_mgmt_latency, _find_frame)

        def _find_frame():
            if self.free_queue.num_free <= 0:
                # Out of frames: drop the lock so the eviction daemon can
                # run, then retry once it signals (condition-variable
                # semantics; holding the mutex here would deadlock).
                if self.mutex is not None:
                    self.mutex.release()
                self._frame_waiters.append(_reacquire)
                self._trigger_daemon(force=True)
                return
            cfn = self.free_queue.allocate(self.cpds)
            self.filling_frames += 1
            self.data_manager.fill(
                cfn,
                frame_of(page_table.word(vpn)),
                sub_block_of(addr),
                on_offloaded=lambda c=cfn: _offloaded(c),
                on_resume=done,
            )

        def _reacquire():
            if self.mutex is not None:
                self.mutex.acquire(_find_frame, owner="tag_miss_retry")
            else:
                _find_frame()

        def _offloaded(cfn: int) -> None:
            self._commit_tags(frame_of(page_table.word(vpn)), cfn)
            self.filling_frames -= 1
            self.tag_latency.add(self.sim.now - t0)
            if self.mutex is not None:
                self.mutex.release()
            self._trigger_daemon()

        if self.mutex is not None:
            self.mutex.acquire(_with_mutex, owner="tag_miss_handler")
        else:
            _with_mutex()

    def _commit_tags(self, pfn: int, cfn: int) -> None:
        """Tag management: CPD, C bit, and every PTE mapping ``pfn``
        (shared pages)."""
        cpds = self.cpds
        cpds.valid[cfn] = 1
        cpds.pfn[cfn] = pfn
        cpds.dirty_in_cache[cfn] = 0
        cpds.tlb_directory[cfn] = 0
        self.tables.cached[pfn] = 1
        for map_core, map_vpn in self.tables.reverse_map(pfn):
            self.page_tables[map_core].cache(map_vpn, cfn)

    def warm_fills(self, pages) -> None:
        """Zero-cost fills for the warmup fast-forward.

        ``pages`` are ``(core, vpn, dirty)`` in warm order, all touched.
        Each page still uncached when its turn comes (a repeat or a
        shared frame may have cached it) takes a frame and commits its
        tags without traffic, timing, or statistics, evicting from the
        tail first when the free count is at the threshold.
        """
        fq = self.free_queue
        cpds = self.cpds
        page_tables = self.page_tables
        for core_id, vpn, dirty in pages:
            word = page_tables[core_id].word(vpn)
            if word & (PTE_C | PTE_NC):
                continue
            if fq.num_free <= self.eviction_threshold:
                self._warm_evict(self.eviction_batch)
            if fq.num_free <= 0:
                continue
            cfn = fq.allocate(cpds)
            self._commit_tags(frame_of(word), cfn)
            if dirty:
                cpds.dirty_in_cache[cfn] = 1

    def _warm_evict(self, n: int) -> None:
        fq = self.free_queue
        valid = self.cpds.valid
        directory = self.cpds.tlb_directory
        evicted = scanned = 0
        while evicted < n and fq.allocated > 0 and scanned < fq.num_frames:
            cfn = fq.advance_tail()
            scanned += 1
            if not valid[cfn] or directory[cfn]:
                continue
            self._release_frame(cfn)
            evicted += 1

    # ------------------------------------------------------------------
    # Background eviction daemon (Algorithm 2)
    # ------------------------------------------------------------------

    def _below_threshold(self) -> bool:
        return self.free_queue.num_free < self.eviction_threshold

    def _trigger_daemon(self, force: bool = False) -> None:
        if self._daemon_running:
            return
        if not force and not self._below_threshold():
            return
        self._daemon_running = True
        self.sim.schedule(0, self._daemon_start)

    def _daemon_start(self) -> None:
        if self.mutex is not None:
            self.mutex.acquire(self._daemon_batch_begin,
                               owner="eviction_daemon")
        else:
            self._daemon_batch_begin()

    def _daemon_batch_begin(self) -> None:
        self._evict_remaining = self.eviction_batch
        self._batch_freed = 0
        if self._tel is not None:
            self._tel.os_begin(
                ("daemon",), "eviction_batch", "daemon", self.sim.now
            )
        self._daemon_step()

    def _daemon_step(self) -> None:
        fq = self.free_queue
        valid = self.cpds.valid
        directory = self.cpds.tlb_directory
        while True:
            if self._evict_remaining <= 0 or fq.allocated == 0:
                self._daemon_finish()
                return
            tail = fq.tail
            if not valid[tail]:
                fq.advance_tail()
                continue
            if directory[tail]:
                self.counts.eviction_tlb_skips += 1
            elif self.data_manager.frame_busy(tail):
                self.counts.eviction_busy_skips += 1
            else:
                break
            fq.advance_tail()
            self._evict_remaining -= 1
        cfn = fq.advance_tail()
        self._evict_remaining -= 1
        self._evict_frame(cfn, self.eviction_cost, self._daemon_step)

    def _evict_frame(self, cfn: int, cost: int, cont: Callable[[], None]) -> None:
        """Reclaim one frame; ``cont`` resumes the daemon afterwards."""
        pfn = self.cpds.pfn[cfn]
        dirty = self.cpds.dirty_in_cache[cfn] or self.assume_all_dirty
        # Flush SRAM lines of every mapping (Algorithm 2, line 3); dirty
        # lines must reach the DRAM cache before the page copies out.
        if self.flush_on_evict:
            for map_core, map_vpn in self.tables.reverse_map(pfn):
                for line_addr in self.hierarchy.invalidate_page(map_core, map_vpn):
                    self.hbm.access(
                        line_addr & ~DC_SPACE_BIT, True, TrafficClass.WRITEBACK
                    )
                    self.counts.flushed_dirty_lines += 1
                    dirty = True
        else:
            # Ideal mode: SRAM lines stay valid; just point them back at
            # the physical frame so later dirty evictions route sanely.
            for map_core, map_vpn in self.tables.reverse_map(pfn):
                self.hierarchy.retarget_page(map_core, map_vpn, pfn * 4096)
        self._release_frame(cfn)
        self._batch_freed += 1
        self.counts.evictions += 1
        if dirty:
            self.counts.writeback_commands += 1
            self.data_manager.writeback(
                cfn, pfn, on_offloaded=lambda: self.sim.schedule(cost, cont)
            )
        else:
            self.sim.schedule(cost, cont)

    def _release_frame(self, cfn: int) -> None:
        """Restore the PTEs mapping ``cfn`` through the reverse map, clear
        the frame's C bit and CPD, and count it free."""
        cpds = self.cpds
        pfn = cpds.pfn[cfn]
        self.tables.cached[pfn] = 0
        for map_core, map_vpn in self.tables.reverse_map(pfn):
            self.page_tables[map_core].uncache(map_vpn, cfn, pfn)
        cpds.valid[cfn] = 0
        cpds.dirty_in_cache[cfn] = 0
        self.free_queue.mark_freed()

    def _daemon_finish(self) -> None:
        if self._tel is not None:
            self._tel.os_end(
                ("daemon",), self.sim.now, {"freed": self._batch_freed}
            )
        if self._batch_freed == 0 and self._frame_waiters:
            # Fallback: every reclaimable frame was TLB-resident.  Force a
            # shootdown on one frame so allocation can make progress.
            self._force_shootdown_evict()
        if self.mutex is not None:
            self.mutex.release()
        self._daemon_running = False
        waiters, self._frame_waiters = self._frame_waiters, []
        for waiter in waiters:
            self.sim.schedule(0, waiter)
        if self._below_threshold() and self._batch_freed > 0:
            self._trigger_daemon()

    def _force_shootdown_evict(self) -> None:
        fq = self.free_queue
        cpds = self.cpds
        scanned = 0
        while scanned < fq.num_frames:
            tail = fq.tail
            scanned += 1
            if cpds.valid[tail] and not self.data_manager.frame_busy(tail):
                for map_core, map_vpn in self.tables.reverse_map(cpds.pfn[tail]):
                    if self._tlbs is not None:
                        self._tlbs[map_core].invalidate(map_vpn)
                self.counts.forced_shootdowns += 1
                cfn = fq.advance_tail()
                self._evict_frame(cfn, TLB_SHOOTDOWN_COST, lambda: None)
                return
            fq.advance_tail()

    def attach_tlbs(self, tlbs) -> None:
        """Give the front-end shootdown access to the per-core TLBs."""
        self._tlbs = tlbs

    def metrics(self) -> dict:
        lat = self.tag_latency
        counts = self.counts
        return {
            **mean_stats("tag_mgmt_latency", lat.count, lat.total, lat.max),
            "fills": lat.count,
            **{name: getattr(counts, name) for name in counts.__slots__},
        }

    def guard_state(self) -> dict:
        fq = self.free_queue
        state = {
            "free_frames": fq.num_free,
            "allocated_frames": fq.allocated,
            "head": fq.head,
            "tail": fq.tail,
            "daemon_running": self._daemon_running,
            "frame_waiters": len(self._frame_waiters),
        }
        if self.mutex is not None:
            state["mutex_locked"] = self.mutex.locked
            state["mutex_holder"] = self.mutex.holder
            state["mutex_queue_depth"] = self.mutex.queue_depth
        return state

    # ------------------------------------------------------------------
    # TLB directory maintenance (called from the scheme's TLB hooks)
    # ------------------------------------------------------------------

    def tlb_changed(self, core_id: int, vpn: int, installed: bool) -> None:
        """Core ``core_id``'s TLB installed or evicted ``vpn``: set or
        clear its directory bit on the frame the PTE maps right now."""
        word = self.page_tables[core_id].word(vpn)
        if not word & PTE_C:
            return
        directory = self.cpds.tlb_directory
        cfn = frame_of(word)
        if installed:
            directory[cfn] |= 1 << core_id
        else:
            directory[cfn] &= ~(1 << core_id)
