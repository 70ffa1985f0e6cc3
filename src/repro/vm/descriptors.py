"""Physical and cache page descriptors (paper Fig. 4) and reverse maps.

* C bits -- per physical frame, the appended cached (C) bit of its page
  descriptor, one byte per PFN in :attr:`DescriptorTables.cached`.  The
  NC bit lives in the PTE, the only place the page walker reads it.
* CPD -- per cache frame: valid (V), dirty-in-cache (DC), the PFN the
  frame caches (for PTE restoration at eviction), and a TLB directory
  bitmask used for TLB-shootdown avoidance (the eviction daemon skips
  frames whose translations still sit in some core's TLB).
* Reverse mappings -- PFN -> [(core, vpn)] so the eviction daemon can
  restore every PTE that maps an evicted frame (shared-page support,
  Section III-G).

A frame's C bit and reverse map are flat entries of two PFN-indexed
containers rather than an object per frame: a machine snapshot pickles
and every fork unpickles all of them, and the object count is what
that costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.inline_state import InlineState


@dataclass(slots=True)
class CPD:
    """Cache page descriptor (42 bits in the paper; 8 B aligned).

    ``slots=True``: a 64 MB cache has 16 K of these, probed on the DC
    write path and scanned by the eviction daemon.
    """

    cfn: int
    valid: bool = False
    dirty_in_cache: bool = False
    pfn: int = 0
    tlb_directory: int = 0  # bitmask: which cores' TLBs hold this CFN

    def __reduce__(self):
        # One CPD per cache frame (16 K at 64 MB); see PTE.__reduce__.
        return (CPD, (
            self.cfn, self.valid, self.dirty_in_cache,
            self.pfn, self.tlb_directory,
        ))

    @property
    def in_any_tlb(self) -> bool:
        return self.tlb_directory != 0

    def set_tlb_bit(self, core_id: int) -> None:
        self.tlb_directory |= 1 << core_id

    def clear_tlb_bit(self, core_id: int) -> None:
        self.tlb_directory &= ~(1 << core_id)


class DescriptorTables(InlineState):
    """The OS's frame bookkeeping: PFN allocator, C bits, reverse map.

    PFNs are handed out densely from 0, so both per-frame containers
    are indexed by PFN.
    """

    def __init__(self):
        #: The C bit of every allocated PFN (1 while the DC caches it).
        self.cached = bytearray()
        # Per PFN, its mappings as one flat tuple (core, vpn, core, vpn, ...).
        self._rmap: List[Tuple[int, ...]] = []

    def allocate(self, core_id: int, vpn: int) -> int:
        """Allocate a fresh physical frame mapped by ``(core, vpn)``."""
        pfn = len(self._rmap)
        self._rmap.append((core_id, vpn))
        self.cached.append(0)
        return pfn

    def share(self, pfn: int, core_id: int, vpn: int) -> None:
        """Add another mapping to an existing frame (shared pages)."""
        if not 0 <= pfn < len(self._rmap):
            raise KeyError(f"PFN {pfn} was never allocated")
        self._rmap[pfn] += (core_id, vpn)

    def reverse_map(self, pfn: int) -> List[Tuple[int, int]]:
        """All (core, vpn) pairs whose PTEs map ``pfn``."""
        if not 0 <= pfn < len(self._rmap):
            return []
        flat = self._rmap[pfn]
        return list(zip(flat[::2], flat[1::2]))

    @property
    def frames_allocated(self) -> int:
        return len(self._rmap)


class CPDArray(InlineState):
    """The cache page descriptor array, indexed by CFN."""

    def __init__(self, num_frames: int):
        if num_frames <= 0:
            raise ValueError(f"need at least one cache frame, got {num_frames}")
        self.num_frames = num_frames
        self._cpds = [CPD(cfn) for cfn in range(num_frames)]

    def __getitem__(self, cfn: int) -> CPD:
        return self._cpds[cfn]

    def __len__(self) -> int:
        return self.num_frames

    def valid_count(self) -> int:
        return sum(1 for c in self._cpds if c.valid)
