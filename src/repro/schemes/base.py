"""Common plumbing shared by every DRAM cache scheme.

A scheme owns the whole memory side of the machine: per-core TLBs, page
tables and walkers, the SRAM hierarchy, and both DRAM devices.  The core
model uses two of its structures directly and three of its methods:

* ``tlbs[core_id].lookup`` -- synchronous TLB probe (None on miss),
* :meth:`peek_translate` -- functional walk on a TLB miss; reports
  whether the OS must intervene,
* :meth:`translate_miss` -- asynchronous walk + scheme-specific OS work
  (this is where OS-managed schemes, :class:`OSManagedScheme`, run
  their DC tag miss handlers),
* ``page_tables[core_id].translate`` -- VPN + virtual address -> routed
  byte address, from the PTE as it is at that moment,
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
from repro.vm.descriptors import MAX_CORES, DescriptorTables
from repro.vm.page_table import PageTable, is_tag_miss, touch_pages
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

    def __call__(self, vpn: int) -> None:
        self.scheme.on_tlb_change(self.core_id, vpn, self.installed)

    def __getstate__(self):
        return (self.scheme, self.core_id, self.installed)

    def __setstate__(self, state):
        self.scheme, self.core_id, self.installed = state


class _DCAccessTimes:
    """Plain-int DC access-time totals and the stats they flush into.

    ``SchemeBase._record_dc_access`` runs once per LLC miss, so it adds
    to these slots, and :meth:`flush` (the scheme's ``set_sync`` hook)
    overwrites the StatGroup objects with the totals on read (see the
    stats module docstring).
    """

    __slots__ = ("count", "total", "min", "max", "buckets",
                 "mean_stat", "hist_stat", "reads_stat")

    def __init__(self, stats):
        self.mean_stat = stats.mean("dc_access_time")
        self.hist_stat = stats.histogram("dc_access_time_hist")
        self.reads_stat = stats.counter("dc_reads")
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: dict = {}

    def flush(self) -> None:
        self.reads_stat.value = self.count
        mean = self.mean_stat
        mean.count = self.count
        mean.total = self.total
        mean.min = self.min
        mean.max = self.max
        hist = self.hist_stat
        hist.count = self.count
        hist.total = self.total
        hist.buckets.clear()
        hist.buckets.update(self.buckets)


class SchemeBase(Component):
    """Abstract DRAM cache scheme + the memory system it governs."""

    scheme_name = "abstract"

    def __init__(self, sim: Simulator, cfg: SystemConfig):
        if cfg.num_cores > MAX_CORES:
            raise ValueError(f"at most {MAX_CORES} cores are supported, "
                             f"got {cfg.num_cores}")
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
        self.hierarchy = CacheHierarchy(sim, cfg, self.dc_access, self.dc_writeback)

        self._dc_times = _DCAccessTimes(self.stats)
        self.stats.set_sync(self._dc_times.flush)

    @property
    def walk_latency(self) -> int:
        return self.cfg.tlb.walk_latency

    # -- TLB directory hooks (overridden where CPDs exist) ----------------

    def _make_tlb_hook(self, core_id: int, installed: bool) -> _TLBHook:
        return _TLBHook(self, core_id, installed)

    def on_tlb_change(self, core_id: int, vpn: int, installed: bool) -> None:
        """Maintain the CPD TLB directory; no-op for HW schemes."""

    # -- core-facing API ---------------------------------------------------

    def peek_translate(self, core_id: int, vpn: int) -> tuple:
        """TLB-miss fast path: walk functionally and report whether the
        OS must intervene.

        Returns ``(walk_latency, needs_os)``.  When ``needs_os`` is
        False the walk behaves like extra access latency (hardware page
        walkers overlap with execution), the translation is installed,
        and the core does NOT suspend.  When True (a DC tag miss in an
        OS-managed scheme) the core synchronizes with simulated time and
        calls :meth:`translate_miss`, which suspends the thread for the
        OS routine -- the paper's blocking semantics.
        """
        word, walk = self.walkers[core_id].walk(vpn)
        if self._needs_os_intervention(word):
            return walk, True
        self.tlbs[core_id].install(vpn)
        return walk, False

    def _needs_os_intervention(self, pte_word: int) -> bool:
        """HW schemes never trap to the OS on a walk."""
        return False

    def translate_miss(
        self,
        core_id: int,
        vpn: int,
        now: int,
        done: Callable[[int], None],
        addr: int = 0,
    ) -> None:
        """Walk the page table; subclasses add their OS miss handling.

        ``done(ready_time)`` must be called at ``ready_time`` (the
        simulator clock will read that time), with the translation
        installed in the core's TLB.
        """
        _word, walk = self.walkers[core_id].walk(vpn)
        ready = now + walk
        self.tlbs[core_id].install(vpn)
        self.sim.schedule_at(ready, lambda: done(ready))

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
        times = self._dc_times
        times.count += 1
        times.total += lat
        mn = times.min
        if mn is None or lat < mn:
            times.min = lat
        mx = times.max
        if mx is None or lat > mx:
            times.max = lat
        # Same power-of-two bucketing as Histogram._bucket.
        bucket = (1 << (lat.bit_length() - 1)) if lat > 0 else 0
        buckets = times.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    # -- warmup (the paper's fast-forward region) ---------------------------

    def warm_pages(self, pages) -> None:
        """Functionally touch pages at zero cost: allocate their frames
        and let the scheme pre-cache them (used to warm the DC before
        timing).

        ``pages`` is one ordered list of ``(core, vpn, dirty)``; a page's
        ``dirty`` marks it dirty in the cache so steady-state eviction
        produces writeback traffic.
        """
        self._warm_fills(pages, touch_pages(self.page_tables, pages))

    def _warm_fills(self, pages, words) -> None:
        """Scheme hook: bring the touched pages into the DRAM cache.

        ``words`` are the pages' PTE words as their touch left them.
        """

    # -- reporting ---------------------------------------------------------

    def fill_bytes(self) -> int:
        """Bytes of fill the workload demanded (RMHB numerator)."""
        return self.page_fills() * PAGE_SIZE

    def dc_access_time_mean(self) -> float:
        times = self._dc_times
        return times.total / times.count if times.count else 0.0

    def dc_access_time_percentile(self, p: float) -> int:
        """Approximate percentile of DC access time (power-of-two buckets).

        Tail latency is where miss-handling designs differ most: a
        blocking scheme's mean hides multi-thousand-cycle outliers that
        the p99 exposes.
        """
        self._dc_times.flush()
        return self._dc_times.hist_stat.percentile(p)

    def llc_misses(self) -> int:
        return self.hierarchy.llc_miss_count

    # Without a DRAM cache nothing fills; schemes with one override both.
    def page_fills(self) -> int:
        return 0

    def page_writebacks(self) -> int:
        return 0


class OSManagedScheme(SchemeBase):
    """A scheme whose DC tags the OS keeps in the PTEs.

    Subclasses build ``self.frontend`` (a
    :class:`~repro.core.frontend.FrontEnd` over their data manager) and
    attach it to the TLBs.  A page walk that finds a cacheable-but-uncached
    page runs the front-end's tag miss handler before the translation is
    installed, and the warmup hands every page to the front-end.
    """

    def on_tlb_change(self, core_id, vpn, installed) -> None:
        self.frontend.tlb_changed(core_id, vpn, installed)

    def _needs_os_intervention(self, pte_word) -> bool:
        return is_tag_miss(pte_word)

    def translate_miss(self, core_id, vpn, now, done, addr=0) -> None:
        _word, walk = self.walkers[core_id].walk(vpn)
        ready = now + walk
        page_table = self.page_tables[core_id]

        def _after_walk() -> None:
            # The PTE as it is now: another core's tag miss may have
            # cached a shared page since the walk.
            if is_tag_miss(page_table.word(vpn)):
                self.frontend.handle_tag_miss(core_id, vpn, addr, _install)
            else:
                _install(self.sim.now)

        def _install(t: int) -> None:
            self.tlbs[core_id].install(vpn)
            done(t)

        self.sim.schedule_at(ready, _after_walk)

    def _warm_fills(self, pages, words) -> None:
        self.frontend.warm_fills(pages)

    def tag_mgmt_latency_mean(self) -> float:
        return self.frontend.stats.get("tag_mgmt_latency").mean

    def page_fills(self) -> int:
        return self.frontend.stats.get("fills").value

    def page_writebacks(self) -> int:
        return self.frontend.stats.get("writeback_commands").value
