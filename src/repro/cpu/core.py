"""A ROB-occupancy out-of-order core model.

The model dispatches the trace in program order at ``width`` instructions
per cycle and enforces three stall sources, which are exactly the ones
the paper's evaluation decomposes:

1. **ROB-window stalls** -- a load stays "in flight" until its data
   return; a younger instruction more than ``rob_size`` instructions
   ahead cannot dispatch until the load completes.  Independent misses
   within the window overlap, which is the memory-level parallelism that
   non-blocking DRAM caches (TiD, NOMAD) exploit and blocking ones (TDC)
   forfeit.
2. **Dependence stalls** -- trace ops flagged ``dependent`` stall
   dispatch until their data arrive (serialized pointer chasing).
3. **OS stalls** -- the DRAM cache scheme may suspend the thread (page
   walks, DC tag miss handlers, TDC's blocking page copies).  These are
   reported separately because Fig. 11's "application stall cycles" are
   precisely the OS suspensions.

The core runs *ahead* of the simulator clock while unblocked: SRAM hits
resolve synchronously and only TLB misses and LLC misses synchronize
with the event queue, which keeps the Python event count proportional to
DRAM-level activity rather than instruction count.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from repro.common.types import MemAccess
from repro.config.system import CoreConfig
from repro.engine.simulator import Component, Simulator


class StallCounters:
    """A core's stall-cycle and miss counters.

    Kept off the core itself so the core's own attributes stay within
    CPython's inline-attribute limit (see ``repro.common.inline_state``).
    """

    __slots__ = ("window", "store", "dep", "os", "tlb", "tlb_misses",
                 "tag_misses")

    def __init__(self):
        self.window = 0
        self.store = 0
        self.dep = 0
        self.os = 0
        self.tlb = 0
        self.tlb_misses = 0
        self.tag_misses = 0


class Core(Component):
    """One simulated core executing a single-threaded trace."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        cfg: CoreConfig,
        scheme,
        trace: Iterator,
        on_finish: Optional[Callable[["Core"], None]] = None,
    ):
        super().__init__(sim, f"core{core_id}")
        self.core_id = core_id
        self.cfg = cfg
        self.scheme = scheme
        self._next_op = iter(trace).__next__  # bound once; called per op
        self.on_finish = on_finish

        # Dispatch-clock state (may run ahead of sim.now).
        self.dispatch_cycles = 0
        self._slack = 0  # instructions dispatched in the current cycle
        self.inst_count = 0
        self.loads = 0
        self.stores = 0

        # In-flight loads: [inst_index, completion_time_or_None] entries.
        self.outstanding: deque = deque()
        self._pending_op = None
        self._d_candidate: Optional[int] = None
        self._idx_candidate = 0
        self._slack_next = 0
        self._waiting = False  # blocked on a load completion
        self._dep_wait = None  # entry of a dependent load being waited on
        self._draining = False
        self.finish_time: Optional[int] = None

        # Missed stores in flight; dispatch stalls when the store buffer
        # (cfg.store_buffer) is full.
        self.outstanding_stores = 0
        self._store_blocked = False

        self.stalls = StallCounters()
        # Per-op scheme calls, bound by start().  Assigned here too: on
        # CPython 3.11 every new instance shrinks the room a class has
        # for attribute names first set after __init__, and a name that
        # no longer fits materializes the instance dict.
        self._tlb_lookup = self._hier_access = self._translate = None

    # Attributes derived from the trace or bound from the scheme by
    # start(); pickled as None (iterators do not pickle, and the trace
    # itself is re-materialized from (spec, seed) on restore).
    _TRANSIENT = ("_next_op", "_tlb_lookup", "_hier_access", "_translate")

    def __getstate__(self) -> dict:
        # Pickling reads the instance dict anyway (see InlineState).
        state = dict(self.__dict__)
        for name in self._TRANSIENT:
            state[name] = None
        return state

    def attach_trace(self, trace: Iterator) -> None:
        """Give a restored core its (re-materialized) trace back."""
        self._next_op = iter(trace).__next__

    # -- public API -------------------------------------------------------

    def start(self) -> None:
        # The per-op scheme calls are bound here, not in __init__: when a
        # machine is forked, unpickling restores this core before its
        # scheme, whose tlbs/hierarchy do not exist yet at that point.
        scheme = self.scheme
        self._tlb_lookup = scheme.tlbs[self.core_id].lookup
        self._hier_access = scheme.hierarchy.access
        self._translate = scheme.page_tables[self.core_id].translate
        self.sim.schedule(0, self._advance)

    def guard_state(self) -> dict:
        return {
            "inst_count": self.inst_count,
            "mem_ops": self.mem_ops,
            "done": self.done,
            "waiting": self._waiting,
            "draining": self._draining,
            "outstanding_loads": len(self.outstanding),
            "outstanding_stores": self.outstanding_stores,
            "store_blocked": self._store_blocked,
            "dispatch_cycles": self.dispatch_cycles,
        }

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def os_stall_cycles(self) -> int:
        return self.stalls.os

    @property
    def tlb_misses(self) -> int:
        return self.stalls.tlb_misses

    @property
    def ipc(self) -> float:
        if not self.finish_time:
            return 0.0
        return self.inst_count / self.finish_time

    def stall_breakdown(self) -> dict:
        total = self.finish_time or 1
        stalls = self.stalls
        return {
            "os": stalls.os / total,
            "window": stalls.window / total,
            "store": stalls.store / total,
            "dep": stalls.dep / total,
            "tlb": stalls.tlb / total,
        }

    # -- dispatch engine ----------------------------------------------------

    def _advance(self) -> None:
        """Dispatch trace ops until blocked or exhausted."""
        if self.done or self._dep_wait is not None:
            return
        self._waiting = False
        # Loop-invariant attributes bound once per activation (the loop
        # body runs once per trace op).
        cfg = self.cfg
        width = cfg.width
        rob_size = cfg.rob_size
        store_buffer = cfg.store_buffer
        outstanding = self.outstanding
        next_op = self._next_op
        tlb_lookup = self._tlb_lookup
        stalls = self.stalls
        while True:
            if self._pending_op is None:
                try:
                    item = next_op()
                except StopIteration:
                    self._finish_dispatch()
                    return
                self._pending_op = item
                gap = item[0]
                total = self._slack + gap + 1
                self._d_candidate = self.dispatch_cycles + total // width
                self._slack_next = total % width
                self._idx_candidate = self.inst_count + gap + 1

            d = self._d_candidate
            idx = self._idx_candidate

            # ROB window: retire loads that are rob_size older than idx.
            window_limit = idx - rob_size
            blocked = False
            while outstanding and outstanding[0][0] <= window_limit:
                head = outstanding[0]
                if head[1] is None:
                    self._waiting = True
                    blocked = True
                    break
                if head[1] > d:
                    stalls.window += head[1] - d
                    d = head[1]
                outstanding.popleft()
            if blocked:
                self._d_candidate = d
                return

            if self.outstanding_stores >= store_buffer:
                self._d_candidate = d
                self._store_blocked = True
                self._waiting = True
                return

            _, addr, is_write, dependent = self._pending_op
            vpn = addr >> 12
            extra_lat = tlb_lookup(vpn)
            if extra_lat is None:
                stalls.tlb_misses += 1
                walk, needs_os = self.scheme.peek_translate(self.core_id, vpn)
                if needs_os:
                    # A DC tag miss: the OS suspends the thread, so we
                    # must synchronize with simulated time first.
                    self._d_candidate = d
                    if d > self.sim.now:
                        self.sim.schedule_at(d, self._tlb_miss_now)
                    else:
                        self._tlb_miss_now()
                    return
                # Plain walk: overlapped by the hardware walker; charge
                # it as extra latency on this access only.
                stalls.tlb += walk
                extra_lat = walk
            if not self._issue_and_handle_dep(
                vpn, extra_lat, d, addr, is_write, idx, dependent
            ):
                return

    def _tlb_miss_now(self) -> None:
        """Runs at sim.now == dispatch time of the TLB-missing op."""
        if self.done:
            return
        d = self._d_candidate
        _, addr, is_write, dependent = self._pending_op
        vpn = addr >> 12
        self.scheme.translate_miss(
            self.core_id, vpn, d, self._translation_done, addr=addr,
        )

    def _translation_done(self, ready: int) -> None:
        """The walk (and any OS miss handling) finished at ``ready``."""
        d = self._d_candidate
        walk = self.scheme.walk_latency
        stalls = self.stalls
        stalls.tlb += min(ready - d, walk)
        os_part = ready - d - walk
        if os_part > 0:
            stalls.os += os_part
            stalls.tag_misses += 1
        _, addr, is_write, dependent = self._pending_op
        idx = self._idx_candidate
        # The OS suspension pushed the dispatch clock itself.
        self._d_candidate = ready
        if self._issue_and_handle_dep(
            addr >> 12, 0, ready, addr, is_write, idx, dependent
        ):
            self._advance()

    def _issue_and_handle_dep(
        self, vpn, extra_lat, d, addr, is_write, idx, dependent
    ) -> bool:
        """Issue one op into the hierarchy; False pauses dispatch.

        Runs once per memory op (the former separate ``_issue`` helper
        is folded in to drop a call frame).  The translation is read from
        the page table now, as the access issues.
        """
        issue_time = d + extra_lat
        access = MemAccess(
            addr, is_write, self.core_id, self._translate(vpn, addr)
        )
        entry = None
        if is_write:
            self.stores += 1
            callback: Callable[[int], None] = self._store_done
        else:
            self.loads += 1
            entry = [idx, None]
            self.outstanding.append(entry)
            callback = self._make_load_done(entry)
        completion = self._hier_access(access, issue_time, callback)
        if is_write and completion is None:
            self.outstanding_stores += 1
        # Commit dispatch-state for this op.
        self.dispatch_cycles = d
        self.inst_count = idx
        self._slack = self._slack_next
        self._pending_op = None
        self._d_candidate = None
        if completion is not None and entry is not None:
            entry[1] = completion

        if not dependent or is_write:
            return True
        if completion is None:
            # ``entry`` is the load appended above.
            self._dep_wait = entry
            return False
        if completion > self.dispatch_cycles:
            self.stalls.dep += completion - self.dispatch_cycles
            self.dispatch_cycles = completion
        return True

    def _store_done(self, t: int) -> None:
        """A missed store drained; unblock dispatch if the buffer was full."""
        self.outstanding_stores -= 1
        if self._store_blocked:
            self._store_blocked = False
            d = self._d_candidate
            if d is not None and t > d:
                self.stalls.store += t - d
                self._d_candidate = t
            self._advance()
        elif self._draining:
            self._try_finish()

    def _make_load_done(self, entry) -> Callable[[int], None]:
        def _done(t: int) -> None:
            entry[1] = t
            if self._dep_wait is entry:
                self._dep_wait = None
                if t > self.dispatch_cycles:
                    self.stalls.dep += t - self.dispatch_cycles
                    self.dispatch_cycles = t
                self._advance()
            elif self._waiting:
                self._advance()
            elif self._draining:
                self._try_finish()

        return _done

    # -- completion -------------------------------------------------------

    def _finish_dispatch(self) -> None:
        self._draining = True
        self._try_finish()

    def _try_finish(self) -> None:
        if self.done:
            return
        if any(entry[1] is None for entry in self.outstanding):
            return
        end = self.dispatch_cycles
        for entry in self.outstanding:
            if entry[1] > end:
                end = entry[1]
        self.outstanding.clear()
        self.finish_time = max(end, self.sim.now)
        if self.on_finish is not None:
            self.on_finish(self)
