"""The NOMAD back-end hardware (paper Section III-D).

The back-end owns data management for the OS-managed DRAM cache:

* an **interface register** through which the front-end offloads
  cache-fill and writeback commands -- the OS can only send a command
  when a PCSHR is available, so a saturated PCSHR file back-pressures
  the tag miss handler (the contention Figs. 12-14 sweep);
* the **PCSHR file** executing page copies concurrently, each staged
  through a **page copy buffer**, sub-block by sub-block, with
  critical-data-first scheduling;
* **data-hit verification**: every DC access compares its CFN against
  the PCSHR tags.  No match means the whole page is resident (data hit);
  a match is a data miss, serviced from the page copy buffer when the
  demanded sub-block has arrived, or parked in a sub-entry until it does.

Cache fills read 64 sub-blocks from off-package DDR into the buffer and
drain the buffer into the DRAM cache; writebacks do the reverse.  Read
transfers are issued when the copy launches (so every sub-block's
buffer-arrival time is fixed then); the drain into the destination
device is issued when the last sub-block arrives, which keeps the
destination bus free for demand traffic in the meantime.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.common.types import (
    PAGE_SIZE,
    SUB_BLOCKS_PER_PAGE,
    TrafficClass,
)
from repro.config.schemes import NomadConfig
from repro.core.frontend import DataManager
from repro.core.page_copy_buffer import PageCopyBufferPool
from repro.core.pcshr import CommandType, PCSHR
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Component, Simulator

_PAGE_SUBS = range(SUB_BLOCKS_PER_PAGE)


class Backend(Component, DataManager):
    """One back-end: interface + PCSHR file + page copy buffers."""

    # Telemetry tracer hook (repro.telemetry); instance attr when armed.
    _tel = None

    def __init__(
        self,
        sim: Simulator,
        cfg: NomadConfig,
        hbm: DRAMDevice,
        ddr: DRAMDevice,
        name: str = "backend",
        num_pcshrs: Optional[int] = None,
        num_buffers: Optional[int] = None,
    ):
        Component.__init__(self, sim, name)
        self.cfg = cfg
        self.hbm = hbm
        self.ddr = ddr
        n = num_pcshrs if num_pcshrs is not None else cfg.num_pcshrs
        m = num_buffers if num_buffers is not None else min(
            n, cfg.resolved_copy_buffers()
        )
        self.pcshrs = [PCSHR(i, cfg.sub_entries_per_pcshr) for i in range(n)]
        self._free: deque = deque(self.pcshrs)
        self._by_cfn: Dict[int, PCSHR] = {}
        # probe() runs on every DC access; the dict is never rebound, so
        # the instance attribute shadows the method (kept below as the
        # documented contract) with a single bound dict lookup.
        self.probe = self._by_cfn.get
        self.buffers = PageCopyBufferPool(sim, m)
        self._cmd_waiters: deque = deque()

        self._fill_cmds = self.stats.counter("fill_commands")
        self._wb_cmds = self.stats.counter("writeback_commands")
        self._cmd_wait = self.stats.mean("command_wait")
        self._data_hits = self.stats.counter("data_hits")
        self._data_misses = self.stats.counter("data_misses")
        self._buffer_hits = self.stats.counter("buffer_hits")
        self._buffer_write_merges = self.stats.counter("buffer_write_merges")
        self._sub_entry_waits = self.stats.counter("sub_entry_waits")

    # ------------------------------------------------------------------
    # DataManager interface (commands from the front-end)
    # ------------------------------------------------------------------

    def fill(
        self,
        cfn: int,
        pfn: int,
        sub_block: int,
        on_offloaded: Callable[[], None],
        on_resume: Callable[[int], None],
    ) -> None:
        def _accepted() -> None:
            on_offloaded()
            # Non-blocking: the thread resumes as soon as the command is
            # in a PCSHR; the copy proceeds in the background.
            on_resume(self.sim.now)

        self._send(CommandType.CACHE_FILL, pfn, cfn, sub_block, _accepted)

    def writeback(
        self, cfn: int, pfn: int, on_offloaded: Callable[[], None]
    ) -> None:
        self._send(CommandType.WRITEBACK, pfn, cfn, None, on_offloaded)

    def frame_busy(self, cfn: int) -> bool:
        entry = self._by_cfn.get(cfn)
        return entry is not None and entry.cmd_type == CommandType.CACHE_FILL

    # ------------------------------------------------------------------
    # Interface register / command admission
    # ------------------------------------------------------------------

    @property
    def interface_busy(self) -> bool:
        """The S bit: busy while no PCSHR can take the next command."""
        return not self._free or bool(self._cmd_waiters)

    def _send(
        self,
        cmd_type: CommandType,
        pfn: int,
        cfn: int,
        sub_block: Optional[int],
        accepted: Callable[[], None],
    ) -> None:
        arrival = self.sim.now
        self._cmd_waiters.append((cmd_type, pfn, cfn, sub_block, accepted, arrival))
        self._drain_commands()

    def _drain_commands(self) -> None:
        """Admit queued commands FIFO while PCSHRs (and CFNs) allow."""
        while self._cmd_waiters:
            cmd_type, pfn, cfn, sub, accepted, arrival = self._cmd_waiters[0]
            if not self._free or cfn in self._by_cfn:
                return
            self._cmd_waiters.popleft()
            self._cmd_wait.add(self.sim.now - arrival)
            self._allocate(cmd_type, pfn, cfn, sub)
            accepted()

    def _allocate(
        self, cmd_type: CommandType, pfn: int, cfn: int, sub: Optional[int]
    ) -> None:
        pcshr = self._free.popleft()
        pcshr.allocate(cmd_type, pfn, cfn, sub, self.sim.now)
        self._by_cfn[cfn] = pcshr
        if cmd_type == CommandType.CACHE_FILL:
            self._fill_cmds.inc()
        else:
            self._wb_cmds.inc()
        if self._tel is not None:
            self._tel.copy_begin(
                (self.name, pcshr.index),
                "fill" if cmd_type == CommandType.CACHE_FILL else "writeback",
                self.sim.now,
                {"cfn": cfn, "pfn": pfn, "pcshr": pcshr.index,
                 "backend": self.name},
            )
        self.buffers.acquire(lambda p=pcshr: self._launch(p))

    # ------------------------------------------------------------------
    # Page copy execution
    # ------------------------------------------------------------------

    def _launch(self, pcshr: PCSHR) -> None:
        """Issue all read transfers; fix the buffer-arrival schedule."""
        order = pcshr.transfer_order(self.cfg.critical_data_first)
        if pcshr.cmd_type == CommandType.CACHE_FILL:
            src, base, tc = self.ddr, pcshr.pfn * PAGE_SIZE, TrafficClass.FILL
        else:
            src, base, tc = self.hbm, pcshr.cfn * PAGE_SIZE, TrafficClass.WRITEBACK
        arrivals = src.transfer(base, order, False, tc)
        pcshr.launch(self.sim.now, arrivals)
        if self._tel is not None:
            self._tel.copy_instant(
                (self.name, pcshr.index), "launch", self.sim.now
            )
        last = max(arrivals)
        self.sim.schedule_at(last, lambda p=pcshr: self._transfer_in_done(p))
        # Wake any reads that were parked while waiting for a buffer.
        for sub, callback in pcshr.pending_reads:
            ready = max(self.sim.now, arrivals[sub])
            self.sim.schedule_at(
                ready, _at_time(callback, ready + self.cfg.copy_buffer_latency)
            )
        pcshr.pending_reads = []

    def _transfer_in_done(self, pcshr: PCSHR) -> None:
        """Everything is in the buffer; drain to the destination device."""
        if self._tel is not None:
            self._tel.copy_instant(
                (self.name, pcshr.index), "drain", self.sim.now
            )
        if pcshr.cmd_type == CommandType.CACHE_FILL:
            dst, base, tc = self.hbm, pcshr.cfn * PAGE_SIZE, TrafficClass.FILL
        else:
            dst, base, tc = self.ddr, pcshr.pfn * PAGE_SIZE, TrafficClass.WRITEBACK
        write_times = dst.transfer(base, _PAGE_SUBS, True, tc)
        pcshr.write_times = write_times
        pcshr.free_at = max(write_times)
        self.sim.schedule_at(pcshr.free_at, lambda p=pcshr: self._complete(p))

    def _complete(self, pcshr: PCSHR) -> None:
        if self._tel is not None:
            self._tel.copy_end((self.name, pcshr.index), self.sim.now)
        pcshr.sync(self.sim.now)
        waiters, pcshr.complete_waiters = pcshr.complete_waiters, []
        for waiter in waiters:
            waiter()
        pcshr.release()
        del self._by_cfn[pcshr.cfn]
        self._free.append(pcshr)
        self.buffers.release()
        self._drain_commands()

    # ------------------------------------------------------------------
    # Data-hit verification on the DC access path (Section III-D3)
    # ------------------------------------------------------------------

    def probe(self, cfn: int) -> Optional[PCSHR]:
        """CFN tag compare against all PCSHRs; None means a data hit."""
        return self._by_cfn.get(cfn)

    def note_data_hit(self) -> None:
        self._data_hits.inc()

    def read_data_miss(
        self, pcshr: PCSHR, sub: int, done: Callable[[int], None]
    ) -> None:
        """Service a read that matched an in-flight page copy.

        If the sub-block already sits in the page copy buffer the read is
        served from there (saving on-package DRAM latency and bandwidth);
        otherwise it parks in a sub-entry until the sub-block arrives.
        """
        now = self.sim.now
        self._data_misses.inc()
        if not self.cfg.serve_from_copy_buffer:
            # Ablation: always wait for the full copy, then read the DC.
            pcshr.add_sub_entry(sub, id(done))

            def _read_from_dc() -> None:
                self.hbm.access(
                    pcshr.cfn * PAGE_SIZE + sub * 64,
                    False,
                    TrafficClass.DEMAND,
                    callback=lambda: done(self.sim.now),
                )

            pcshr.complete_waiters.append(_read_from_dc)
            return
        if pcshr.sub_block_in_buffer(sub, now):
            self._buffer_hits.inc()
            ready = now + self.cfg.copy_buffer_latency
            self.sim.schedule_at(ready, _at_time(done, ready))
            return
        # Park in a sub-entry until the data arrive.
        self._sub_entry_waits.inc()
        pcshr.add_sub_entry(sub, id(done))
        arrival = pcshr.buffer_ready_time(sub)
        if arrival is None:
            # Copy not launched yet (waiting for a page copy buffer).
            pcshr.pending_reads.append((sub, done))
            return
        ready = max(now, arrival) + self.cfg.copy_buffer_latency
        self.sim.schedule_at(ready, _at_time(done, ready))

    def write_data_miss(self, pcshr: PCSHR, sub: int) -> int:
        """A write that matched an in-flight copy merges into the buffer.

        Returns the completion time (writes complete immediately in the
        buffer; the drain carries the merged data to the destination).
        """
        self._data_misses.inc()
        self._buffer_write_merges.inc()
        pcshr.record_cpu_write(sub)
        return self.sim.now + self.cfg.copy_buffer_latency

    # -- reporting ----------------------------------------------------------

    def buffer_hit_ratio(self) -> float:
        """Fraction of data misses served directly by page copy buffers
        (read hits in the buffer plus write merges into it)."""
        served = self._buffer_hits.value + self._buffer_write_merges.value
        total = served + self._sub_entry_waits.value
        return served / total if total else 0.0

    @property
    def outstanding_copies(self) -> int:
        return len(self._by_cfn)

    def guard_state(self) -> dict:
        return {
            "outstanding_copies": len(self._by_cfn),
            "free_pcshrs": len(self._free),
            "queued_commands": len(self._cmd_waiters),
            "active_cfns": sorted(self._by_cfn)[:16],
        }


def _at_time(callback: Callable[[int], None], t: int) -> Callable[[], None]:
    def _fire() -> None:
        callback(t)

    return _fire
