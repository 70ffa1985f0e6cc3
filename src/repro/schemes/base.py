"""Common plumbing shared by every DRAM cache scheme.

A scheme owns the whole memory side of the machine: per-core TLBs, page
tables and walkers, the SRAM hierarchy, and both DRAM devices.  The core
model uses two of its structures directly and three of its methods:

* ``tlbs[core_id].lookup`` -- synchronous TLB probe (None on miss),
* :meth:`peek_translate` -- functional walk on a TLB miss; reports
  whether the OS must intervene,
* :meth:`translate_miss` -- asynchronous walk + scheme-specific OS work
  (this is where OS-managed schemes run their DC tag miss handlers),
* :meth:`translate_addr` -- PTE + virtual address -> routed byte address,
* ``hierarchy.access`` -- issue into L1/L2/L3; LLC misses call back
  into the scheme's :meth:`dc_access`.

Address routing: translated addresses carry ``DC_SPACE_BIT`` when they
point into the DRAM cache (on-package HBM); otherwise they are physical
addresses in off-package DDR.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import DC_SPACE_BIT, MemAccess, PAGE_SIZE, TrafficClass
from repro.config.system import SystemConfig
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Component, Simulator
from repro.vm.descriptors import DescriptorTables
from repro.vm.page_table import PTE, PageTable
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker


def is_dc_addr(addr: int) -> bool:
    return bool(addr & DC_SPACE_BIT)


def dc_addr(cfn: int, offset: int) -> int:
    """Cache-space byte address of (cache frame, in-page offset)."""
    return DC_SPACE_BIT | (cfn * PAGE_SIZE + offset)


def pa_addr(pfn: int, offset: int) -> int:
    return pfn * PAGE_SIZE + offset


class _TLBHook:
    """One core's TLB install/evict notification into the scheme.

    A class rather than a closure so the whole scheme graph stays
    picklable for ``Machine.snapshot`` (a closure would not be).
    """

    __slots__ = ("scheme", "core_id", "installed")

    def __init__(self, scheme: "SchemeBase", core_id: int, installed: bool):
        self.scheme = scheme
        self.core_id = core_id
        self.installed = installed

    def __call__(self, vpn: int, pte: PTE) -> None:
        self.scheme.on_tlb_change(self.core_id, vpn, pte, self.installed)

    def __getstate__(self):
        return (self.scheme, self.core_id, self.installed)

    def __setstate__(self, state):
        self.scheme, self.core_id, self.installed = state


class SchemeBase(Component):
    """Abstract DRAM cache scheme + the memory system it governs."""

    scheme_name = "abstract"

    def __init__(self, sim: Simulator, cfg: SystemConfig):
        super().__init__(sim, f"scheme.{self.scheme_name}")
        self.cfg = cfg
        freq = cfg.core.freq_ghz
        self.hbm = DRAMDevice(sim, "hbm", cfg.hbm, freq)
        self.ddr = DRAMDevice(sim, "ddr", cfg.ddr, freq)
        self.tables = DescriptorTables()
        self.page_tables = [PageTable(i, self.tables) for i in range(cfg.num_cores)]
        self.walkers = [
            PageWalker(i, cfg.tlb, self.page_tables[i]) for i in range(cfg.num_cores)
        ]
        self.tlbs = [
            TLB(
                i,
                cfg.tlb,
                on_install=self._make_tlb_hook(i, installed=True),
                on_evict=self._make_tlb_hook(i, installed=False),
            )
            for i in range(cfg.num_cores)
        ]
        self.walk_latency = cfg.tlb.walk_latency
        self.hierarchy = CacheHierarchy(sim, cfg, self.dc_access, self.dc_writeback)

        self._dc_access_time = self.stats.mean("dc_access_time")
        self._dc_access_hist = self.stats.histogram("dc_access_time_hist")
        self._dc_reads = self.stats.counter("dc_reads")
        self._fills = self.stats.counter("page_fills")
        self._writebacks = self.stats.counter("page_writebacks")

        # _record_dc_access runs once per LLC miss, so it accumulates
        # plain ints and _sync_dc_stats flushes them into the StatGroup
        # objects above on read (see the stats module docstring).  The
        # fill/writeback counters stay direct Counter objects: they fire
        # at page, not line, granularity.
        self._dc_time_count = 0
        self._dc_time_total = 0
        self._dc_time_min: Optional[int] = None
        self._dc_time_max: Optional[int] = None
        self._dc_hist_buckets: dict = {}
        self.stats.set_sync(self._sync_dc_stats)

    # -- TLB directory hooks (overridden where CPDs exist) ----------------

    def _make_tlb_hook(self, core_id: int, installed: bool) -> _TLBHook:
        return _TLBHook(self, core_id, installed)

    def on_tlb_change(self, core_id: int, vpn: int, pte: PTE, installed: bool) -> None:
        """Maintain the CPD TLB directory; no-op for HW schemes."""

    # -- core-facing API ---------------------------------------------------

    def peek_translate(self, core_id: int, vpn: int) -> tuple:
        """TLB-miss fast path: walk functionally and report whether the
        OS must intervene.

        Returns ``(pte, walk_latency, needs_os)``.  When ``needs_os`` is
        False the walk behaves like extra access latency (hardware page
        walkers overlap with execution), the translation is installed,
        and the core does NOT suspend.  When True (a DC tag miss in an
        OS-managed scheme) the core synchronizes with simulated time and
        calls :meth:`translate_miss`, which suspends the thread for the
        OS routine -- the paper's blocking semantics.
        """
        pte, walk = self.walkers[core_id].walk(vpn)
        if self._needs_os_intervention(pte):
            return pte, walk, True
        self.tlbs[core_id].install(vpn, pte)
        return pte, walk, False

    def _needs_os_intervention(self, pte: PTE) -> bool:
        """HW schemes never trap to the OS on a walk."""
        return False

    def translate_miss(
        self,
        core_id: int,
        vpn: int,
        now: int,
        done: Callable[[int, PTE], None],
        addr: int = 0,
    ) -> None:
        """Walk the page table; subclasses add their OS miss handling.

        ``done(ready_time, pte)`` must be called at ``ready_time`` (the
        simulator clock will read that time).
        """
        pte, walk = self.walkers[core_id].walk(vpn)
        ready = now + walk
        self.tlbs[core_id].install(vpn, pte)
        self.sim.schedule_at(ready, lambda: done(ready, pte))

    def translate_addr(self, pte: PTE, addr: int) -> int:
        """Virtual byte address -> routed (DC- or PA-space) address.

        Runs once per post-TLB access, so the dc_addr/pa_addr helpers are
        inlined as shift-and-or (PAGE_SIZE is 4096 and the offset stays
        below it, so ``pfn * PAGE_SIZE + offset == (pfn << 12) | offset``).
        """
        if pte.cached:
            return DC_SPACE_BIT | (pte.page_frame_num << 12) | (addr & 4095)
        return (pte.page_frame_num << 12) | (addr & 4095)

    # -- hierarchy-facing API ----------------------------------------------

    def dc_access(self, access: MemAccess, fill_cb: Callable[[int], None]) -> None:
        """Service an LLC miss; must call ``fill_cb(finish_time)``."""
        raise NotImplementedError

    def dc_writeback(self, paddr: int) -> None:
        """Dirty LLC eviction; route to the device owning ``paddr``."""
        if is_dc_addr(paddr):
            self.hbm.access(paddr & ~DC_SPACE_BIT, True, TrafficClass.DEMAND)
        else:
            self.ddr.access(paddr, True, TrafficClass.DEMAND)

    # -- shared helpers ------------------------------------------------------

    def _record_dc_access(self, start: int, end: int) -> None:
        lat = end - start
        self._dc_time_count += 1
        self._dc_time_total += lat
        mn = self._dc_time_min
        if mn is None or lat < mn:
            self._dc_time_min = lat
        mx = self._dc_time_max
        if mx is None or lat > mx:
            self._dc_time_max = lat
        # Same power-of-two bucketing as Histogram._bucket.
        bucket = (1 << (lat.bit_length() - 1)) if lat > 0 else 0
        buckets = self._dc_hist_buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    def _sync_dc_stats(self) -> None:
        """Flush the plain-int DC access totals into the StatGroup objects.

        Writes ``self.stats._stats[...]`` contents directly (the objects
        were created in ``__init__``); going through ``stats.get`` would
        re-enter this hook.
        """
        self._dc_reads.value = self._dc_time_count
        mean = self._dc_access_time
        mean.count = self._dc_time_count
        mean.total = self._dc_time_total
        mean.min = self._dc_time_min
        mean.max = self._dc_time_max
        hist = self._dc_access_hist
        hist.count = self._dc_time_count
        hist.total = self._dc_time_total
        hist.buckets.clear()
        hist.buckets.update(self._dc_hist_buckets)

    # -- warmup (the paper's fast-forward region) ---------------------------

    def warm_page(self, core_id: int, vpn: int, dirty: bool = False) -> None:
        """Functionally touch a page at zero cost: allocate its frame and
        let the scheme pre-cache it (used to warm the DC before timing).
        ``dirty`` marks the frame dirty-in-cache so steady-state eviction
        produces writeback traffic."""
        pte = self.page_tables[core_id].get_or_create(vpn)
        self._warm_cache_page(core_id, vpn, pte, dirty)

    def _warm_cache_page(self, core_id: int, vpn: int, pte: PTE,
                         dirty: bool = False) -> None:
        """Scheme hook: bring the page into the DRAM cache state."""

    # -- reporting ---------------------------------------------------------

    def fill_bytes(self) -> int:
        """Bytes of fill the workload demanded (RMHB numerator)."""
        return self.page_fills() * PAGE_SIZE

    def dc_access_time_mean(self) -> float:
        n = self._dc_time_count
        return self._dc_time_total / n if n else 0.0

    def dc_access_time_percentile(self, p: float) -> int:
        """Approximate percentile of DC access time (power-of-two buckets).

        Tail latency is where miss-handling designs differ most: a
        blocking scheme's mean hides multi-thousand-cycle outliers that
        the p99 exposes.
        """
        self._sync_dc_stats()
        return self._dc_access_hist.percentile(p)

    def llc_misses(self) -> int:
        return self.hierarchy.llc_miss_count

    def page_fills(self) -> int:
        return self._fills.value

    def page_writebacks(self) -> int:
        return self._writebacks.value
