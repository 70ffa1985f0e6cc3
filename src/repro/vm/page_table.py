"""Per-process page tables with the NOMAD PTE extension (Fig. 4).

A PTE's ``page_frame_num`` holds the *physical* frame number normally and
is replaced by the *cache* frame number while the page resides in the
DRAM cache -- exactly the paper's tag-in-PTE trick.  The C (cached) and
NC (non-cacheable) bits stored in the PTE's unused field let the page
walker detect a DC tag miss (cacheable but not cached) without touching
any other structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.inline_state import InlineState


@dataclass(slots=True)
class PTE:
    """One page table entry.

    ``slots=True``: one PTE exists per touched page, and the walker and
    translate path read these attributes on every access.
    """

    page_frame_num: int
    present: bool = True
    cached: bool = False  # C bit: frame number is a CFN
    non_cacheable: bool = False  # NC bit
    dirty: bool = False  # conventional dirty bit
    dirty_in_cache: bool = False  # DC bit (mirrored in the CPD)

    def __reduce__(self):
        # Positional-args reduce instead of the generic slots protocol: a
        # machine snapshot pickles one PTE per touched page, and the TLBs
        # alias the page table's PTE objects, so they must round-trip as
        # objects (pickle's memo keeps the aliasing) but cheaply.
        return (PTE, (
            self.page_frame_num, self.present, self.cached,
            self.non_cacheable, self.dirty, self.dirty_in_cache,
        ))

    @property
    def is_tag_miss(self) -> bool:
        """Cacheable but not cached: triggers the DC tag miss handler."""
        return self.present and not self.non_cacheable and not self.cached


class PageTable(InlineState):
    """One core's (process's) virtual address space.

    Physical frames are allocated lazily on first touch from a shared
    allocator, mirroring demand paging.
    """

    def __init__(self, core_id: int, frame_allocator):
        self.core_id = core_id
        self._frame_allocator = frame_allocator
        self._entries: Dict[int, PTE] = {}
        self.pages_touched = 0

    def lookup(self, vpn: int) -> Optional[PTE]:
        """The PTE for ``vpn`` or None if never touched."""
        return self._entries.get(vpn)

    def get_or_create(self, vpn: int) -> PTE:
        """Walk; allocate a physical frame on first touch."""
        pte = self._entries.get(vpn)
        if pte is None:
            pfn = self._frame_allocator.allocate(self.core_id, vpn)
            pte = PTE(page_frame_num=pfn)
            self._entries[vpn] = pte
            self.pages_touched += 1
        return pte

    def entries(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)


def touch_pages(page_tables: Sequence[PageTable], pages) -> List[PTE]:
    """:meth:`PageTable.get_or_create` for every ``(core, vpn, dirty)``
    of ``pages``, in order, so first touches allocate frames in that
    order; returns the PTEs in the same order."""
    return [page_tables[core_id].get_or_create(vpn) for core_id, vpn, _ in pages]
