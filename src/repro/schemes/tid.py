"""TiD: the HW-based tags-in-DRAM cache (Unison-style, Section IV-A).

A 4-way set-associative DRAM cache with 1 KB lines and an *ideal way
predictor*.  Tags live in on-package DRAM rows alongside data, so every
DC access spends on-package bandwidth on metadata: a tag-read burst
before the data access and a tag/LRU/dirty update burst after it.  That
metadata tax is TiD's fundamental drawback (Fig. 1a, Fig. 10) -- it
stretches the effective DC access time for high-MPMS workloads.

Miss handling is non-blocking through a line-granular MSHR file with
critical-word-first fetch: the demanded 64 B sub-block returns to the
LLC as soon as it arrives from off-package memory.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.mshr import MSHRFile
from repro.common.inline_state import InlineState
from repro.common.types import MemAccess, TrafficClass
from repro.config.schemes import TiDConfig
from repro.config.system import SystemConfig
from repro.engine.simulator import Simulator
from repro.schemes.base import SchemeBase
from repro.vm.page_table import frame_of


class TiDTagArray(InlineState):
    """Set-associative tag state with way assignment and LRU.

    Each set is a plain dict ``line_id -> record`` whose insertion order
    is the LRU order (front = victim; a touch re-inserts the line at the
    back, as in :class:`~repro.cache.sram_cache.SRAMCache`).  A record
    is one int, ``way << 1 | dirty``, so a warmed 64 MB cache holds no
    object per line.
    """

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self._sets: List[Dict[int, int]] = [{} for _ in range(num_sets)]

    def set_of(self, line_id: int) -> int:
        return line_id % self.num_sets

    def lookup(self, line_id: int, touch: bool = True) -> Optional[int]:
        """Returns the ``way << 1 | dirty`` record or None."""
        s = self._sets[line_id % self.num_sets]
        rec = s.get(line_id)
        if rec is not None and touch:
            del s[line_id]
            s[line_id] = rec
        return rec

    def allocate(self, line_id: int) -> Tuple[int, Optional[Tuple[int, int, bool]]]:
        """Choose a way for ``line_id``.

        Returns ``(way, victim)`` where victim is ``(line_id, way, dirty)``
        or None when a way was free.
        """
        s = self._sets[line_id % self.num_sets]
        if line_id in s:
            raise KeyError(f"line {line_id} already present")
        way, victim = self._place(s)
        s[line_id] = way << 1
        return way, victim

    def _place(self, s: Dict[int, int]) -> Tuple[int, Optional[Tuple[int, int, bool]]]:
        """The way a new line takes in set ``s``, evicting its LRU line
        when the set is full."""
        if len(s) < self.ways:
            # A set only loses a way when replacement refills that same
            # slot, so a set of n lines holds exactly ways 0..n-1.
            return len(s), None
        victim_id = next(iter(s))
        rec = s.pop(victim_id)
        return rec >> 1, (victim_id, rec >> 1, bool(rec & 1))

    def mark_dirty(self, line_id: int) -> None:
        s = self._sets[line_id % self.num_sets]
        rec = s.get(line_id)
        if rec is not None:
            s[line_id] = rec | 1

    def fill(self, line_ids, dirty: bool) -> None:
        """Install lines without traffic (the warmup fast-forward).

        An absent line takes a way as :meth:`allocate` would, its victim
        dropped unwritten; a present line keeps its LRU position.  With
        ``dirty`` every line ends up dirty.
        """
        sets = self._sets
        num_sets = self.num_sets
        for line_id in line_ids:
            s = sets[line_id % num_sets]
            rec = s.get(line_id)
            if rec is None:
                rec = self._place(s)[0] << 1
            s[line_id] = rec | dirty

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class _ActiveFill:
    """One in-flight 1 KB line fill and its merged waiters."""

    __slots__ = ("line_id", "way", "arrivals", "waiters")

    def __init__(self, line_id: int, way: int):
        self.line_id = line_id
        self.way = way
        self.arrivals: Optional[List[int]] = None
        self.waiters: List[Tuple[int, Callable[[int], None]]] = []


class TiDScheme(SchemeBase):
    """Hardware-managed DRAM cache with tags in on-package DRAM."""

    scheme_name = "tid"

    def __init__(
        self, sim: Simulator, cfg: SystemConfig, tid_cfg: TiDConfig = TiDConfig()
    ):
        super().__init__(sim, cfg)
        self.tid_cfg = tid_cfg
        dc_bytes = cfg.dc_pages * 4096
        num_sets = dc_bytes // (tid_cfg.line_size * tid_cfg.ways)
        if num_sets <= 0:
            raise ValueError("DRAM cache too small for the TiD organization")
        self.tags = TiDTagArray(num_sets, tid_cfg.ways)
        self.mshrs = MSHRFile(tid_cfg.mshrs)
        self._active: Dict[int, _ActiveFill] = {}
        self._pending_access: Dict[int, MemAccess] = {}
        self._sub_per_line = tid_cfg.line_size // 64
        self._line_shift = tid_cfg.line_size.bit_length() - 1

        self.tag_reads = 0
        self.tag_updates = 0
        self.dc_hits = 0
        self.dc_misses = 0
        self.line_fills = 0
        self.line_writebacks = 0

    # -- address helpers ----------------------------------------------------

    def _line_id(self, paddr: int) -> int:
        return paddr >> self._line_shift

    def _hbm_line_base(self, line_id: int, way: int) -> int:
        s = self.tags.set_of(line_id)
        return (s * self.tid_cfg.ways + way) * self.tid_cfg.line_size

    def _hbm_tag_addr(self, line_id: int) -> int:
        """Tags share the set's DRAM row (Unison's compound access)."""
        return self._hbm_line_base(line_id, 0)

    # -- DC access path -------------------------------------------------------

    def dc_access(self, access: MemAccess, fill_cb: Callable[[int], None]) -> None:
        """Probe and access.

        The tag burst travels with the data in the same DRAM row (Unison's
        compound access with an ideal way predictor), so on a *hit* the tag
        read costs bandwidth but no extra serialized latency.  On a *miss*
        the fetch can only start once the tag read has confirmed the miss.
        """
        start = self.sim.now
        paddr = access.paddr if access.paddr is not None else access.addr
        line_id = self._line_id(paddr)
        self.tag_reads += 1
        tag_done = self.hbm.access(
            self._hbm_tag_addr(line_id), False, TrafficClass.METADATA
        )
        rec = self.tags.lookup(line_id)
        if rec is not None and line_id not in self._active:
            # DC hit: the data burst follows the tag in the open row.
            self.dc_hits += 1
            if access.is_write:
                self.tags.mark_dirty(line_id)
            data_addr = self._hbm_line_base(line_id, rec >> 1) + (
                (paddr >> 6) % self._sub_per_line
            ) * 64

            def _done() -> None:
                end = self.sim.now
                self._record_dc_access(start, end)
                self._touch_metadata(line_id)
                fill_cb(end)

            self.hbm.access(
                data_addr, access.is_write, TrafficClass.DEMAND, callback=_done
            )
            return
        self.sim.schedule_at(
            tag_done,
            lambda: self._after_probe(access, paddr, line_id, start, fill_cb),
        )

    def _after_probe(
        self,
        access: MemAccess,
        paddr: int,
        line_id: int,
        start: int,
        fill_cb: Callable[[int], None],
    ) -> None:
        sub = (paddr >> 6) % self._sub_per_line
        rec = self.tags.lookup(line_id)
        if rec is not None and line_id not in self._active:
            # The line landed while the tag read was in flight: serve it.
            self.dc_hits += 1
            if access.is_write:
                self.tags.mark_dirty(line_id)

            def _late_hit() -> None:
                end = self.sim.now
                self._record_dc_access(start, end)
                fill_cb(end)

            self.hbm.access(
                self._hbm_line_base(line_id, rec >> 1) + sub * 64,
                access.is_write,
                TrafficClass.DEMAND,
                callback=_late_hit,
            )
            return

        # DC miss (or the line is still being filled): go through MSHRs.
        self.dc_misses += 1
        waiter = self._make_waiter(start, fill_cb)
        if line_id in self._active:
            self._attach_waiter(self._active[line_id], sub, waiter)
            self.mshrs.merges += 1
            return
        outcome = self.mshrs.allocate(line_id, self.sim.now, waiter)
        if outcome == "new":
            self._pending_access[line_id] = access
            self._start_fill(line_id, sub, access.is_write)
        elif outcome == "queued" and line_id not in self._pending_access:
            self._pending_access[line_id] = access
        elif outcome == "merged":
            entry = self.mshrs.lookup(line_id)
            fill = self._active.get(line_id)
            if fill is not None:
                entry.waiters.remove(waiter)
                self._attach_waiter(fill, sub, waiter)

    def _make_waiter(self, start: int, fill_cb: Callable[[int], None]):
        def _respond(t: int) -> None:
            self._record_dc_access(start, t)
            fill_cb(t)

        return _respond

    def _attach_waiter(self, fill: _ActiveFill, sub: int, waiter) -> None:
        if fill.arrivals is not None:
            ready = max(self.sim.now, fill.arrivals[sub])
            self.sim.schedule_at(ready, lambda: waiter(ready))
        else:
            fill.waiters.append((sub, waiter))

    # -- miss handling ---------------------------------------------------------

    def _start_fill(self, line_id: int, demanded_sub: int, is_write: bool) -> None:
        self.line_fills += 1
        way, victim = self.tags.allocate(line_id)
        if is_write:
            self.tags.mark_dirty(line_id)
        if victim is not None and victim[2]:
            self._writeback_line(victim[0], victim[1])
        fill = _ActiveFill(line_id, way)
        self._active[line_id] = fill

        # Critical-word-first fetch of the 1 KB line from off-package DDR.
        order = list(range(self._sub_per_line))
        order.remove(demanded_sub)
        order.insert(0, demanded_sub)
        arrivals = self.ddr.transfer(
            line_id * self.tid_cfg.line_size, order, False, TrafficClass.FILL
        )
        fill.arrivals = arrivals

        # Wake waiters registered before arrivals were known (the MSHR
        # entry's waiters include the original access and early merges).
        entry = self.mshrs.lookup(line_id)
        demanded_ready = arrivals[demanded_sub]
        for waiter in entry.waiters:
            self.sim.schedule_at(demanded_ready, _fire_at(waiter, demanded_ready))
        entry.waiters = []
        for sub, waiter in fill.waiters:
            ready = arrivals[sub]
            self.sim.schedule_at(ready, _fire_at(waiter, ready))
        fill.waiters = []

        self.sim.schedule_at(max(arrivals), lambda: self._drain_fill(fill))

    def _drain_fill(self, fill: _ActiveFill) -> None:
        """All sub-blocks arrived: write the line + its tag into the DC."""
        self.hbm.transfer(
            self._hbm_line_base(fill.line_id, fill.way),
            range(self._sub_per_line), True, TrafficClass.FILL,
        )
        self._touch_metadata(fill.line_id)
        # Late waiters were serviced at their arrival times already.
        for sub, waiter in fill.waiters:
            ready = max(self.sim.now, fill.arrivals[sub])
            self.sim.schedule_at(ready, _fire_at(waiter, ready))
        fill.waiters = []
        del self._active[fill.line_id]
        self.mshrs.retire(fill.line_id, self.sim.now)
        self._pending_access.pop(fill.line_id, None)
        for promoted in self.mshrs.drain_overflow(self.sim.now):
            access = self._pending_access[promoted]
            paddr = access.paddr if access.paddr is not None else access.addr
            sub = (paddr >> 6) % self._sub_per_line
            self._start_fill(promoted, sub, access.is_write)

    def _writeback_line(self, line_id: int, way: int) -> None:
        """Dirty victim: read 1 KB out of the DC, write it off-package."""
        self.line_writebacks += 1
        subs = range(self._sub_per_line)
        arrivals = self.hbm.transfer(
            self._hbm_line_base(line_id, way), subs, False,
            TrafficClass.WRITEBACK,
        )
        ddr_base = line_id * self.tid_cfg.line_size

        def _drain() -> None:
            self.ddr.transfer(ddr_base, subs, True, TrafficClass.WRITEBACK)

        self.sim.schedule_at(max(arrivals), _drain)

    def _touch_metadata(self, line_id: int) -> None:
        """LRU/dirty/tag update burst (fire-and-forget bandwidth)."""
        self.tag_updates += 1
        self.hbm.access(self._hbm_tag_addr(line_id), True, TrafficClass.METADATA)

    # -- LLC writebacks ----------------------------------------------------------

    def dc_writeback(self, paddr: int) -> None:
        line_id = self._line_id(paddr)
        rec = self.tags.lookup(line_id, touch=False)
        if rec is not None:
            self.tags.mark_dirty(line_id)
            sub = (paddr >> 6) % self._sub_per_line
            self.hbm.access(
                self._hbm_line_base(line_id, rec >> 1) + sub * 64,
                True,
                TrafficClass.DEMAND,
            )
            self._touch_metadata(line_id)
        else:
            self.ddr.access(paddr, True, TrafficClass.DEMAND)

    def _warm_fills(self, pages, words) -> None:
        """Pre-install every page's 1 KB lines in the tag array."""
        shift = self._line_shift
        lines_per_page = 4096 >> shift
        fill = self.tags.fill
        for (_core, _vpn, dirty), word in zip(pages, words):
            # TiD keeps its tags in HBM: PTEs always hold the PFN.
            base = (frame_of(word) << 12) >> shift
            fill(range(base, base + lines_per_page), dirty)

    # -- reporting ----------------------------------------------------------------

    def metrics(self) -> dict:
        return {
            **super().metrics(),
            "tag_reads": self.tag_reads,
            "tag_updates": self.tag_updates,
            "dc_hits": self.dc_hits,
            "dc_misses": self.dc_misses,
            "line_fills": self.line_fills,
            "line_writebacks": self.line_writebacks,
        }

    def fill_bytes(self) -> int:
        return self.line_fills * self.tid_cfg.line_size

    def page_fills(self) -> int:
        return self.line_fills

    def page_writebacks(self) -> int:
        return self.line_writebacks

    def dc_hit_rate(self) -> float:
        total = self.dc_hits + self.dc_misses
        return self.dc_hits / total if total else 0.0


def _fire_at(waiter: Callable[[int], None], t: int):
    def _fire() -> None:
        waiter(t)

    return _fire
