"""The three-level SRAM hierarchy in front of the DRAM cache.

Private L1/L2 per core and a shared, inclusive L3 (Table II).  Lookups
are functional with composed hit latencies; only LLC misses enter the
event-driven world (the DRAM cache schemes), which keeps the Python
simulation fast where the paper's effects do not live.

Lines are keyed by ``(core_id << 48) | virtual_line`` so the shared L3
capacity is contended between cores while address spaces stay private.
Each line remembers the *translated* address it was filled from so dirty
evictions route to the correct DRAM device; when the OS evicts a page
from the DRAM cache it flushes that page's lines here first
(Algorithm 2, line 3), which we expose as :meth:`invalidate_page`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cache.mshr import MSHRFile
from repro.cache.sram_cache import SRAMCache
from repro.common.types import CACHE_LINE_SIZE, MemAccess
from repro.config.system import SystemConfig
from repro.engine.simulator import Component, Simulator

_CORE_SHIFT = 48
LINES_PER_PAGE = 4096 // CACHE_LINE_SIZE


def line_key(core_id: int, vaddr: int) -> int:
    """Stable hierarchy key for a core's virtual cache line."""
    return (core_id << _CORE_SHIFT) | (vaddr >> 6)


class CacheHierarchy(Component):
    """L1/L2 private + shared L3 with an LLC-side MSHR file."""

    # Telemetry tracer hook (repro.telemetry); instance attr when armed.
    _tel = None

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        miss_handler: Callable[[MemAccess, Callable[[int], None]], None],
        writeback_handler: Callable[[int], None],
    ):
        super().__init__(sim, "hierarchy")
        self.cfg = cfg
        self.num_cores = cfg.num_cores
        self.l1 = [SRAMCache(cfg.l1) for _ in range(cfg.num_cores)]
        self.l2 = [SRAMCache(cfg.l2) for _ in range(cfg.num_cores)]
        self.l3 = SRAMCache(cfg.l3)
        self.mshrs = MSHRFile(cfg.l3.mshrs)
        self.miss_handler = miss_handler
        self.writeback_handler = writeback_handler
        self.response_latency = cfg.l1.latency  # fill-to-use return path
        # Hot-path counters are plain ints, flushed into the StatGroup
        # whenever it is read (see StatGroup.set_sync).
        self.llc_miss_count = 0
        self.llc_access_count = 0
        self.stats.counter("llc_misses")
        self.stats.counter("llc_accesses")
        self.stats.set_sync(self._sync_stats)
        # Composed hit latencies per level (Table II), bound once.
        self._l1_latency = cfg.l1.latency
        self._l2_latency = cfg.l1.latency + cfg.l2.latency
        self._l3_latency = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        self._pending_issue: Dict[int, MemAccess] = {}
        self._pending_dirty: set = set()
        self._schedule_at = sim.schedule_at

    def _sync_stats(self) -> None:
        self.stats._stats["llc_misses"].value = self.llc_miss_count
        self.stats._stats["llc_accesses"].value = self.llc_access_count

    def guard_state(self) -> dict:
        return {
            "llc_accesses": self.llc_access_count,
            "llc_misses": self.llc_miss_count,
            "mshr_outstanding": self.mshrs.outstanding(),
            "mshr_overflow": len(self.mshrs._overflow),
            "pending_issue": len(self._pending_issue),
            "pending_dirty": len(self._pending_dirty),
        }

    # -- access path ----------------------------------------------------

    def access(
        self,
        access: MemAccess,
        now: int,
        on_complete: Callable[[int], None],
    ) -> Optional[int]:
        """Look up the hierarchy at time ``now`` (may be ahead of sim.now).

        Returns the completion time for SRAM hits (synchronous, no event
        scheduled).  Returns ``None`` for LLC misses; ``on_complete(t)``
        fires when the line arrives.
        """
        core = access.core_id
        key = (core << _CORE_SHIFT) | (access.addr >> 6)  # line_key() inlined
        is_write = access.is_write
        l1 = self.l1[core]
        if l1.lookup(key, is_write) is not None:
            return now + self._l1_latency

        l2 = self.l2[core]
        line = l2.lookup(key, is_write)
        if line is not None:
            self._fill_level(l1, key, line.paddr, core)
            return now + self._l2_latency

        self.llc_access_count += 1
        line = self.l3.lookup(key, is_write)
        if line is not None:
            paddr = line.paddr
            self._fill_level(l2, key, paddr, core)
            self._fill_level(l1, key, paddr, core)
            return now + self._l3_latency

        # LLC miss: enter the event-driven world.
        self.llc_miss_count += 1
        if is_write:
            self._pending_dirty.add(key)
        outcome = self.mshrs.allocate(key, now, on_complete)
        if outcome == "new":
            self._pending_issue[key] = access
            self._schedule_at(now + self._l3_latency, partial(self._issue_miss, key))
            if self._tel is not None:
                self._tel.mshr_begin(key, now)
        elif outcome == "queued":
            # Remember the access so the miss can be issued when an MSHR
            # frees up (drained in _on_fill).
            self._pending_issue.setdefault(key, access)
        return None

    def _issue_miss(self, key: int) -> None:
        access = self._pending_issue.pop(key)
        # partial over a lambda: the fill callback fires once per miss,
        # and partial dispatches without an intermediate Python frame.
        self.miss_handler(access, partial(self._on_fill, key, access))

    def _on_fill(self, key: int, access: MemAccess, finish_time: int) -> None:
        """The DRAM cache scheme delivered the line; fill and notify."""
        paddr = access.paddr if access.paddr is not None else access.addr
        dirty = access.is_write or key in self._pending_dirty
        self._pending_dirty.discard(key)
        self._insert_inclusive(access.core_id, key, paddr, dirty)
        done = finish_time + self.response_latency
        if self._tel is not None:
            self._tel.mshr_end(key, finish_time)
        now = self.sim.now
        for waiter in self.mshrs.retire(key, now):
            waiter(done)
        for promoted in self.mshrs.drain_overflow(now):
            self._issue_miss(promoted)
            if self._tel is not None:
                self._tel.mshr_begin(promoted, now)

    # -- fills, evictions, invalidation ----------------------------------

    def _fill_level(self, cache: SRAMCache, key: int, paddr: int, core: int) -> None:
        victim = cache.insert(key, paddr)
        if victim is not None and victim.dirty:
            self._spill(victim, core)

    def _insert_inclusive(self, core: int, key: int, paddr: int, dirty: bool) -> None:
        victim = self.l3.insert(key, paddr)
        if victim is not None:
            self._back_invalidate(victim)
        victim = self.l2[core].insert(key, paddr)
        if victim is not None and victim.dirty:
            self._spill(victim, core)
        victim = self.l1[core].insert(key, paddr, dirty)
        if victim is not None and victim.dirty:
            self._spill(victim, core)

    def _spill(self, victim, core: int) -> None:
        """Push a dirty victim one level down; L3 victims go to DRAM."""
        if self.l2[core].contains(victim.key):
            self.l2[core].lookup(victim.key, is_write=True)
            return
        if self.l3.contains(victim.key):
            self.l3.lookup(victim.key, is_write=True)
            return
        self.writeback_handler(victim.paddr)

    def _back_invalidate(self, victim) -> None:
        """Inclusive L3 eviction: drop upper-level copies, merge dirt."""
        key = victim.key
        core = key >> _CORE_SHIFT
        dirty = victim.dirty
        if core < self.num_cores:
            for cache in (self.l1[core], self.l2[core]):
                line = cache.invalidate(key)
                if line is not None and line.dirty:
                    dirty = True
        if dirty:
            self.writeback_handler(victim.paddr)

    def invalidate_page(self, core_id: int, vpn: int) -> List[int]:
        """Flush one page's lines from all levels (DC eviction flush).

        Returns the translated addresses of dirty lines that were flushed
        (the caller writes them to the DRAM cache before copying the page
        out, mirroring the paper's one-shot flush of aligned frames).
        """
        dirty_addrs: List[int] = []
        base = (core_id << _CORE_SHIFT) | (vpn * LINES_PER_PAGE)
        levels = (self.l1[core_id], self.l2[core_id], self.l3)
        for key in range(base, base + LINES_PER_PAGE):
            dirty = False
            paddr = 0
            for cache in levels:
                line = cache.invalidate(key)
                if line is not None:
                    paddr = line.paddr
                    dirty = dirty or line.dirty
            if dirty:
                dirty_addrs.append(paddr)
        return dirty_addrs

    def retarget_page(self, core_id: int, vpn: int, new_page_base: int) -> None:
        """Point a page's cached lines at a new translated base address.

        Used when a page's translation changes while its SRAM lines stay
        valid (e.g., data teleported by the Ideal scheme).
        """
        base = (core_id << _CORE_SHIFT) | (vpn * LINES_PER_PAGE)
        for i in range(LINES_PER_PAGE):
            key = base + i
            addr = new_page_base + i * CACHE_LINE_SIZE
            for cache in (self.l1[core_id], self.l2[core_id], self.l3):
                cache.update_paddr(key, addr)
