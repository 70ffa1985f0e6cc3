"""Per-process page tables with the NOMAD PTE extension (Fig. 4).

A PTE's frame field holds the *physical* frame number normally and is
replaced by the *cache* frame number while the page resides in the DRAM
cache -- exactly the paper's tag-in-PTE trick.  The C (cached) and NC
(non-cacheable) bits let the page walker detect a DC tag miss
(cacheable but not cached) without touching any other structure.

A PTE is one packed word laid out like a hardware PTE: the frame number
above bit 12, the C bit as ``DC_SPACE_BIT``, and P (touched) and NC in
the low 12 bits.  Masking the flags off leaves the page's *routed* base
address, so a translation is one mask and one OR.  A page table keeps
the words in one VPN-indexed ``array`` (0 = never touched), pickled as
one buffer; the column grows on first touch while it stays within four
entries per touched page (plus slack), and a VPN beyond that (a sparse
address space, e.g. a replayed trace) keeps its word in a small dict.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.common.inline_state import InlineState
from repro.common.types import DC_SPACE_BIT

PTE_P = 1  # present: the page was touched (a frame is allocated)
PTE_NC = 2  # non-cacheable
PTE_C = DC_SPACE_BIT  # cached: the frame field holds a CFN
PTE_FLAGS = 4095  # the low 12 bits: P, NC
_FRAME_BITS = DC_SPACE_BIT - 1  # frame << 12, without C and flags
_DENSE_SLACK = 1 << 16


def frame_of(word: int) -> int:
    """The frame number (PFN, or CFN when the C bit is set) of a PTE word."""
    return (word & _FRAME_BITS) >> 12


def is_tag_miss(word: int) -> bool:
    """Present, cacheable but not cached: the DC tag miss handler runs."""
    return word & (PTE_P | PTE_NC | PTE_C) == PTE_P


class PageTable(InlineState):
    """One core's (process's) virtual address space.

    Physical frames are allocated lazily on first touch from a shared
    allocator, mirroring demand paging, so PFNs follow touch order.
    """

    def __init__(self, core_id: int, frame_allocator):
        self.core_id = core_id
        self._frame_allocator = frame_allocator
        self.words = array("q")
        self._sparse: Dict[int, int] = {}
        self.pages_touched = 0

    def word(self, vpn: int) -> int:
        """The PTE word of ``vpn``; 0 if it was never touched."""
        words = self.words
        return words[vpn] if vpn < len(words) else self._sparse.get(vpn, 0)

    def translate(self, vpn: int, addr: int) -> int:
        """Virtual byte address -> routed (DC- or PA-space) address, from
        the PTE as it is now (runs once per post-TLB access)."""
        try:
            word = self.words[vpn]
        except IndexError:
            word = self._sparse[vpn]
        return (word & -4096) | (addr & 4095)  # ~PTE_FLAGS, PTE_FLAGS

    def touch(self, vpn: int) -> int:
        """Walk; allocate a physical frame on first touch.  Returns the
        PTE word."""
        words = self.words  # self.word(vpn), without the call
        word = words[vpn] if vpn < len(words) else self._sparse.get(vpn, 0)
        if not word:
            pfn = self._frame_allocator.allocate(self.core_id, vpn)
            word = self._insert(vpn, (pfn << 12) | PTE_P)
        return word

    def cache(self, vpn: int, cfn: int) -> None:
        """Tag commit: point a touched page's PTE at cache frame ``cfn``."""
        word = self.word(vpn)
        if word:
            self._store(vpn, (word & PTE_FLAGS) | PTE_C | (cfn << 12))

    def uncache(self, vpn: int, cfn: int, pfn: int) -> None:
        """Eviction: a PTE still pointing at cache frame ``cfn`` gets its
        physical frame ``pfn`` back and loses the C bit."""
        word = self.word(vpn)
        if word & ~PTE_FLAGS == PTE_C | (cfn << 12):
            self._store(vpn, (word & PTE_FLAGS) | (pfn << 12))

    def entries(self) -> Iterator[Tuple[int, int]]:
        """``(vpn, word)`` of every touched page, in VPN order."""
        yield from ((vpn, w) for vpn, w in enumerate(self.words) if w)
        yield from sorted(self._sparse.items())

    def _store(self, vpn: int, word: int) -> None:
        if vpn < len(self.words):
            self.words[vpn] = word
        else:
            self._sparse[vpn] = word

    def _insert(self, vpn: int, word: int) -> int:
        self.pages_touched += 1
        words = self.words
        n = len(words)
        if n <= vpn < 4 * self.pages_touched + _DENSE_SLACK:
            words.frombytes(bytes(8 * (vpn + 1 - n)))
            n = vpn + 1
            if self._sparse:  # words the grown column now covers move in
                for moved in [v for v in self._sparse if v < vpn]:
                    words[moved] = self._sparse.pop(moved)
        if vpn < n:
            words[vpn] = word
        else:
            self._sparse[vpn] = word
        return word


def touch_pages(page_tables: Sequence[PageTable], pages) -> List[int]:
    """:meth:`PageTable.touch` for every ``(core, vpn, dirty)`` of
    ``pages``, in order, so first touches allocate frames in that order;
    returns each page's PTE word at its touch."""
    return [page_tables[core_id].touch(vpn) for core_id, vpn, _ in pages]
