"""Page copy status/information holding registers (paper Fig. 6).

A PCSHR is the page-granularity analogue of an MSHR: it traces one
outstanding page copy (cache fill or writeback) at sub-block granularity
with three 64-bit vectors:

* **R** (read-issued)   -- the sub-block's read transfer has been issued,
* **B** (in-buffer)     -- the sub-block's data sit in the page copy
  buffer (fills: arrived from off-package memory; writebacks: read out
  of the DRAM cache),
* **W** (partial-write) -- the sub-block has been written to its
  destination (fills: the DRAM cache; writebacks: off-package memory).

A priority bit (P) plus prioritized sub-block index (PI) implement
critical-data-first scheduling: the sub-block that caused the DC tag
miss is fetched before the sequential remainder.  Sub-entries hold
accesses that hit the PCSHR (data misses) and are woken when their
sub-block reaches the buffer.

The event-driven backend computes each sub-block's transfer times when
the copy launches; the bit vectors are *derived* state, synchronized on
demand via :meth:`sync` -- the hardware semantics at every observation
point without per-bit simulation events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.bitvector import BitVector
from repro.common.inline_state import InlineState
from repro.common.types import SUB_BLOCKS_PER_PAGE


class CommandType(enum.IntEnum):
    """The T bit of the interface register / PCSHR."""

    CACHE_FILL = 0
    WRITEBACK = 1


@dataclass
class SubEntry:
    """A pending data-miss access parked in the PCSHR."""

    valid: bool
    sub_index: int
    access_id: int


class PCSHR(InlineState):
    """One page-copy register; state is owned by the back-end."""

    def __init__(self, index: int, num_sub_entries: int = 4):
        self.index = index
        self.num_sub_entries = num_sub_entries
        self.valid = False
        self.cmd_type = CommandType.CACHE_FILL
        self.pfn = 0
        self.cfn = 0
        self.priority = False
        self.priority_index = 0
        self.r_vector = BitVector(SUB_BLOCKS_PER_PAGE)
        self.b_vector = BitVector(SUB_BLOCKS_PER_PAGE)
        self.w_vector = BitVector(SUB_BLOCKS_PER_PAGE)
        self.sub_entries: List[SubEntry] = []
        self.sub_entry_overflows = 0
        # Transfer schedule, filled in at launch.
        self.launched = False
        self.alloc_time = 0
        self.launch_time: Optional[int] = None
        self.arrival_times: Optional[List[int]] = None  # into the buffer
        self.write_times: Optional[List[int]] = None  # out of the buffer
        self.free_at: Optional[int] = None
        # Written-by-CPU sub-blocks (write data misses merged in-buffer).
        self.cpu_written = BitVector(SUB_BLOCKS_PER_PAGE)
        # Reads that arrived before the copy launched (area-optimized
        # designs can hold a PCSHR waiting for a page copy buffer).
        self.pending_reads: List[tuple] = []
        # Callbacks fired when the copy fully completes (ablation paths).
        self.complete_waiters: List[Callable[[], None]] = []

    # -- lifecycle ---------------------------------------------------------

    def allocate(
        self, cmd_type: CommandType, pfn: int, cfn: int,
        priority_index: Optional[int], now: int,
    ) -> None:
        self.valid = True
        self.cmd_type = cmd_type
        self.pfn = pfn
        self.cfn = cfn
        self.priority = priority_index is not None
        self.priority_index = priority_index if priority_index is not None else 0
        self.r_vector.clear_all()
        self.b_vector.clear_all()
        self.w_vector.clear_all()
        self.cpu_written.clear_all()
        self.sub_entries = []
        self.launched = False
        self.alloc_time = now
        self.launch_time = None
        self.arrival_times = None
        self.write_times = None
        self.free_at = None
        self.pending_reads = []
        self.complete_waiters = []

    def launch(self, now: int, arrival_times: List[int]) -> None:
        """All read transfers issued; record the buffer-arrival schedule."""
        if len(arrival_times) != SUB_BLOCKS_PER_PAGE:
            raise ValueError("need one arrival time per sub-block")
        self.launched = True
        self.launch_time = now
        self.arrival_times = arrival_times
        self.r_vector.set_all()

    def release(self) -> None:
        self.valid = False

    # -- queries -------------------------------------------------------------

    def sub_block_in_buffer(self, sub: int, now: int) -> bool:
        """Is the sub-block's data in the page copy buffer at ``now``?"""
        if self.cpu_written.test(sub):
            return True
        if not self.launched or self.arrival_times is None:
            return False
        return self.arrival_times[sub] <= now

    def buffer_ready_time(self, sub: int) -> Optional[int]:
        """When the sub-block will be in the buffer (None if unknown)."""
        if not self.launched or self.arrival_times is None:
            return None
        return self.arrival_times[sub]

    def record_cpu_write(self, sub: int) -> None:
        """A write data miss merged its data straight into the buffer."""
        self.cpu_written.set(sub)

    def add_sub_entry(self, sub: int, access_id: int) -> SubEntry:
        """Park a pending access; counts overflows past the HW capacity."""
        live = sum(1 for e in self.sub_entries if e.valid)
        if live >= self.num_sub_entries:
            self.sub_entry_overflows += 1
        entry = SubEntry(True, sub, access_id)
        self.sub_entries.append(entry)
        return entry

    def sync(self, now: int) -> None:
        """Bring the derived B/W bit vectors up to date with ``now``.

        Accumulates each vector's new bits in a local int and ORs once
        (128 BitVector.set calls per sync otherwise).
        """
        if self.arrival_times is not None:
            bits = 0
            for i, t in enumerate(self.arrival_times):
                if t <= now:
                    bits |= 1 << i
            self.b_vector._bits |= bits
        self.b_vector._bits |= self.cpu_written._bits
        if self.write_times is not None:
            bits = 0
            for i, t in enumerate(self.write_times):
                if t <= now:
                    bits |= 1 << i
            self.w_vector._bits |= bits
        for entry in self.sub_entries:
            if entry.valid and self.sub_block_in_buffer(entry.sub_index, now):
                entry.valid = False

    def transfer_order(self, critical_data_first: bool) -> List[int]:
        """Sub-block fetch order: PI first, then sequential (Fig. 6)."""
        order = list(range(SUB_BLOCKS_PER_PAGE))
        if critical_data_first and self.priority:
            pi = self.priority_index
            order.remove(pi)
            order.insert(0, pi)
        return order

    def __repr__(self) -> str:
        state = "idle"
        if self.valid:
            state = "waiting" if not self.launched else "active"
        return (
            f"PCSHR({self.index}, {state}, cmd={self.cmd_type.name}, "
            f"pfn={self.pfn}, cfn={self.cfn})"
        )
