"""Two-level per-core data TLBs with TLB-directory maintenance.

The L2 TLB is inclusive of the L1.  When an entry for a DC-cached page
is installed or finally evicted, the owning scheme's CPD TLB-directory
bit is set/cleared via callbacks -- the mechanism NOMAD and TDC use to
avoid TLB shootdowns (the eviction daemon never victimizes a frame whose
translation is still TLB-resident).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from repro.common.inline_state import InlineState
from repro.config.system import TLBConfig
from repro.vm.page_table import PTE


class TLB(InlineState):
    """One core's L1+L2 data TLB."""

    def __init__(
        self,
        core_id: int,
        cfg: TLBConfig,
        on_install: Optional[Callable[[int, PTE], None]] = None,
        on_evict: Optional[Callable[[int, PTE], None]] = None,
    ):
        self.core_id = core_id
        self.cfg = cfg
        self._l1: "OrderedDict[int, PTE]" = OrderedDict()
        self._l2: "OrderedDict[int, PTE]" = OrderedDict()
        self.on_install = on_install
        self.on_evict = on_evict
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> Optional[tuple]:
        """Returns ``(pte, extra_latency)`` on a hit, None on a miss."""
        pte = self._l1.get(vpn)
        if pte is not None:
            self._l1.move_to_end(vpn)
            self._l2.move_to_end(vpn)
            self.l1_hits += 1
            return pte, 0
        pte = self._l2.get(vpn)
        if pte is not None:
            self._l2.move_to_end(vpn)
            self._promote_to_l1(vpn, pte)
            self.l2_hits += 1
            return pte, self.cfg.l2_latency
        self.misses += 1
        return None

    def contains(self, vpn: int) -> bool:
        return vpn in self._l2

    def install(self, vpn: int, pte: PTE) -> None:
        """Install a walked translation into both levels."""
        if vpn in self._l2:
            self._l2.move_to_end(vpn)
            self._promote_to_l1(vpn, pte)
            return
        while len(self._l2) >= self.cfg.l2_entries:
            evicted_vpn, evicted_pte = self._l2.popitem(last=False)
            self._l1.pop(evicted_vpn, None)
            if self.on_evict is not None:
                self.on_evict(evicted_vpn, evicted_pte)
        self._l2[vpn] = pte
        self._promote_to_l1(vpn, pte)
        if self.on_install is not None:
            self.on_install(vpn, pte)

    def invalidate(self, vpn: int) -> bool:
        """Drop a translation (shootdown); True if it was present."""
        self._l1.pop(vpn, None)
        pte = self._l2.pop(vpn, None)
        if pte is not None:
            if self.on_evict is not None:
                self.on_evict(vpn, pte)
            return True
        return False

    def _promote_to_l1(self, vpn: int, pte: PTE) -> None:
        if vpn in self._l1:
            self._l1.move_to_end(vpn)
            return
        while len(self._l1) >= self.cfg.l1_entries:
            self._l1.popitem(last=False)
        self._l1[vpn] = pte

    @property
    def occupancy(self) -> int:
        return len(self._l2)

    def consistency_problems(self) -> list:
        """Self-check of the TLB's structural invariants (guard sweeps).

        The L2 is inclusive of the L1, both levels are capacity-bounded,
        and a vpn resident in both levels must map to the same PTE
        object (install/invalidate always update the levels together).
        """
        problems = []
        if len(self._l1) > self.cfg.l1_entries:
            problems.append(
                f"core{self.core_id} L1 TLB holds {len(self._l1)} entries, "
                f"capacity {self.cfg.l1_entries}"
            )
        if len(self._l2) > self.cfg.l2_entries:
            problems.append(
                f"core{self.core_id} L2 TLB holds {len(self._l2)} entries, "
                f"capacity {self.cfg.l2_entries}"
            )
        for vpn, pte in self._l1.items():
            l2_pte = self._l2.get(vpn)
            if l2_pte is None:
                problems.append(
                    f"core{self.core_id} vpn={vpn} in L1 but not L2: "
                    f"inclusion broken"
                )
            elif l2_pte is not pte:
                problems.append(
                    f"core{self.core_id} vpn={vpn} maps different PTE "
                    f"objects in L1 and L2"
                )
        return problems
