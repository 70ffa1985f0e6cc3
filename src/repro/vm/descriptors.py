"""Physical and cache page descriptors (paper Fig. 4) and reverse maps.

* PPD -- per physical frame: conventional flags plus the appended
  cached (C) and non-cacheable (NC) bits.
* CPD -- per cache frame: valid (V), dirty-in-cache (DC), the PFN the
  frame caches (for PTE restoration at eviction), and a TLB directory
  bitmask used for TLB-shootdown avoidance (the eviction daemon skips
  frames whose translations still sit in some core's TLB).
* Reverse mappings -- PFN -> [(core, vpn)] so the eviction daemon can
  restore every PTE that maps an evicted frame (shared-page support,
  Section III-G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.inline_state import InlineState


@dataclass(slots=True)
class PPD:
    """Physical page descriptor."""

    pfn: int
    cached: bool = False  # C bit
    non_cacheable: bool = False  # NC bit
    dirty: bool = False

    def __reduce__(self):
        # Machine snapshots pickle one PPD per allocated frame; the
        # positional form is several times cheaper than the generic
        # slots protocol (see PTE.__reduce__).
        return (PPD, (self.pfn, self.cached, self.non_cacheable, self.dirty))


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
    """The OS's frame bookkeeping: PFN allocator, PPD array, reverse map."""

    def __init__(self):
        self._next_pfn = 0
        self._ppds: Dict[int, PPD] = {}
        self._rmap: Dict[int, List[Tuple[int, int]]] = {}

    def allocate(self, core_id: int, vpn: int) -> int:
        """Allocate a fresh physical frame mapped by ``(core, vpn)``."""
        pfn = self._next_pfn
        self._next_pfn += 1
        self._ppds[pfn] = PPD(pfn)
        self._rmap[pfn] = [(core_id, vpn)]
        return pfn

    def share(self, pfn: int, core_id: int, vpn: int) -> None:
        """Add another mapping to an existing frame (shared pages)."""
        if pfn not in self._ppds:
            raise KeyError(f"PFN {pfn} was never allocated")
        self._rmap[pfn].append((core_id, vpn))

    def ppd(self, pfn: int) -> PPD:
        return self._ppds[pfn]

    def reverse_map(self, pfn: int) -> List[Tuple[int, int]]:
        """All (core, vpn) pairs whose PTEs map ``pfn``."""
        return list(self._rmap.get(pfn, ()))

    @property
    def frames_allocated(self) -> int:
        return self._next_pfn


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
