"""Core address arithmetic and access/traffic type definitions.

The simulated machine uses byte addresses throughout.  The OS-managed DRAM
cache schemes in the paper operate at the 4 KB page granularity, DRAM
channels transfer 64-byte bursts (one *sub-block*), and the SRAM hierarchy
uses 64-byte cache lines.  All time is in integer CPU cycles.
"""

from __future__ import annotations

import enum
from typing import Optional

PAGE_SIZE = 4096
CACHE_LINE_SIZE = 64
SUB_BLOCK_SIZE = 64
SUB_BLOCKS_PER_PAGE = PAGE_SIZE // SUB_BLOCK_SIZE

# Translated addresses with this bit set live in the DRAM cache (HBM)
# address space; without it they are physical DDR addresses.
DC_SPACE_BIT = 1 << 45

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1
_SUB_SHIFT = SUB_BLOCK_SIZE.bit_length() - 1


def vpn_of(addr: int) -> int:
    """Virtual (or physical) page number of a byte address."""
    return addr >> _PAGE_SHIFT


def page_offset(addr: int) -> int:
    """Byte offset within the 4 KB page."""
    return addr & (PAGE_SIZE - 1)


def line_of(addr: int) -> int:
    """Cache-line number of a byte address."""
    return addr >> _LINE_SHIFT


def sub_block_of(addr: int) -> int:
    """Sub-block index (0..63) of the address within its page."""
    return (addr & (PAGE_SIZE - 1)) >> _SUB_SHIFT


class TrafficClass(enum.IntEnum):
    """Why a DRAM burst was issued; used for bandwidth breakdowns (Fig. 10).

    DEMAND   -- read/write of application data at a DC controller
    METADATA -- DC tag/valid/dirty/LRU traffic (HW-based schemes only)
    FILL     -- page/line fills: reads from off-package, writes to DC
    WRITEBACK-- dirty evictions: reads from DC, writes to off-package
    PTW      -- page-table-walk memory traffic
    """

    DEMAND = 0
    METADATA = 1
    FILL = 2
    WRITEBACK = 3
    PTW = 4


class MemAccess:
    """One memory access travelling through the hierarchy.

    ``addr`` is the virtual address as issued by the core and ``paddr``
    its routed translation (a DC-space or physical address, see
    :mod:`repro.schemes.base`).

    One instance is allocated per memory op, so this is a ``__slots__``
    class holding only what the hierarchy and the schemes read.
    """

    __slots__ = ("addr", "is_write", "core_id", "paddr")

    def __init__(
        self,
        addr: int,
        is_write: bool,
        core_id: int,
        paddr: Optional[int] = None,
    ):
        self.addr = addr
        self.is_write = is_write
        self.core_id = core_id
        self.paddr = paddr

    @property
    def vpn(self) -> int:
        return vpn_of(self.addr)

    @property
    def sub_block(self) -> int:
        return sub_block_of(self.addr)

    def __repr__(self) -> str:
        kind = "STORE" if self.is_write else "LOAD"
        return f"MemAccess(addr={self.addr:#x}, {kind}, core={self.core_id})"
