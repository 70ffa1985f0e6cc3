"""Physical and cache page descriptors (paper Fig. 4) and reverse maps.

* C bits -- per physical frame, the appended cached (C) bit of its page
  descriptor, one byte per PFN in :attr:`DescriptorTables.cached`.  The
  NC bit lives in the PTE, the only place the page walker reads it.
* CPDs -- per cache frame: valid (V), dirty-in-cache (DC), the PFN the
  frame caches (for PTE restoration at eviction), and a TLB directory
  bitmask used for TLB-shootdown avoidance (the eviction daemon skips
  frames whose translations still sit in some core's TLB).
* Reverse mappings -- PFN -> [(core, vpn)] so the eviction daemon can
  restore every PTE that maps an evicted frame (shared-page support,
  Section III-G).

Every field is a flat column indexed by PFN or CFN (a ``bytearray`` or
an ``array``), not an object per frame: a snapshot pickles and every
fork unpickles one buffer per field at any DRAM cache size.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.common.inline_state import InlineState

#: The most cores a machine may have: a CPD's TLB directory is one
#: 64-bit mask with a bit per core.
MAX_CORES = 64


class DescriptorTables(InlineState):
    """The OS's frame bookkeeping: PFN allocator, C bits, reverse map.

    PFNs are handed out densely from 0, so every per-frame column is
    indexed by PFN.  A frame's first mapping is its allocating
    ``(core, vpn)``; further mappings of a shared frame sit in a dict.
    """

    def __init__(self):
        #: The C bit of every allocated PFN (1 while the DC caches it).
        self.cached = bytearray()
        self._rmap_core = bytearray()
        self._rmap_vpn = array("q")
        # PFN -> the extra (core, vpn) mappings of a shared frame.
        self._shared: Dict[int, List[Tuple[int, int]]] = {}

    def allocate(self, core_id: int, vpn: int) -> int:
        """Allocate a fresh physical frame mapped by ``(core, vpn)``."""
        pfn = len(self.cached)
        self.cached.append(0)
        self._rmap_core.append(core_id)
        self._rmap_vpn.append(vpn)
        return pfn

    def share(self, pfn: int, core_id: int, vpn: int) -> None:
        """Add another mapping to an existing frame (shared pages)."""
        if not 0 <= pfn < len(self.cached):
            raise KeyError(f"PFN {pfn} was never allocated")
        self._shared.setdefault(pfn, []).append((core_id, vpn))

    def reverse_map(self, pfn: int) -> List[Tuple[int, int]]:
        """All (core, vpn) pairs whose PTEs map ``pfn``."""
        if not 0 <= pfn < len(self.cached):
            return []
        return [(self._rmap_core[pfn], self._rmap_vpn[pfn]),
                *self._shared.get(pfn, ())]


class CPDArray(InlineState):
    """The cache page descriptor array, one column per field, by CFN:
    ``valid`` and ``dirty_in_cache`` bytes, the cached ``pfn``, and the
    ``tlb_directory`` mask of the cores whose TLBs map the frame (one bit
    per core, at most :data:`MAX_CORES`)."""

    def __init__(self, num_frames: int):
        if num_frames <= 0:
            raise ValueError(f"need at least one cache frame, got {num_frames}")
        self.num_frames = num_frames
        self.valid = bytearray(num_frames)
        self.dirty_in_cache = bytearray(num_frames)
        self.pfn = array("q", bytes(8 * num_frames))
        self.tlb_directory = array("Q", bytes(8 * num_frames))

    def __len__(self) -> int:
        return self.num_frames
