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


class TLB(InlineState):
    """One core's L1+L2 data TLB.  Entries are VPNs only: users of a
    hit, and the install/evict hooks, read the PTE from the page table."""

    def __init__(
        self,
        core_id: int,
        cfg: TLBConfig,
        on_install: Optional[Callable[[int], None]] = None,
        on_evict: Optional[Callable[[int], None]] = None,
    ):
        self.core_id = core_id
        self.cfg = cfg
        self._l1: "OrderedDict[int, None]" = OrderedDict()
        self._l2: "OrderedDict[int, None]" = OrderedDict()
        self.on_install = on_install
        self.on_evict = on_evict
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> Optional[int]:
        """The extra latency of a hit (0 from the L1, the L2 latency from
        the L2); None on a miss."""
        l1 = self._l1
        if vpn in l1:
            l1.move_to_end(vpn)
            self._l2.move_to_end(vpn)
            self.l1_hits += 1
            return 0
        l2 = self._l2
        if vpn in l2:
            l2.move_to_end(vpn)
            self._promote_to_l1(vpn)
            self.l2_hits += 1
            return self.cfg.l2_latency
        self.misses += 1
        return None

    def contains(self, vpn: int) -> bool:
        return vpn in self._l2

    def install(self, vpn: int) -> None:
        """Install a walked translation into both levels."""
        if vpn in self._l2:
            self._l2.move_to_end(vpn)
            self._promote_to_l1(vpn)
            return
        while len(self._l2) >= self.cfg.l2_entries:
            evicted_vpn, _ = self._l2.popitem(last=False)
            self._l1.pop(evicted_vpn, None)
            if self.on_evict is not None:
                self.on_evict(evicted_vpn)
        self._l2[vpn] = None
        self._promote_to_l1(vpn)
        if self.on_install is not None:
            self.on_install(vpn)

    def invalidate(self, vpn: int) -> bool:
        """Drop a translation (shootdown); True if it was present."""
        self._l1.pop(vpn, None)
        if vpn in self._l2:
            del self._l2[vpn]
            if self.on_evict is not None:
                self.on_evict(vpn)
            return True
        return False

    def _promote_to_l1(self, vpn: int) -> None:
        if vpn in self._l1:
            self._l1.move_to_end(vpn)
            return
        while len(self._l1) >= self.cfg.l1_entries:
            self._l1.popitem(last=False)
        self._l1[vpn] = None

    @property
    def occupancy(self) -> int:
        return len(self._l2)

    def consistency_problems(self) -> list:
        """Self-check for guard sweeps: the L2 includes the L1, and both
        levels are within capacity."""
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
        for vpn in self._l1:
            if vpn not in self._l2:
                problems.append(
                    f"core{self.core_id} vpn={vpn} in L1 but not L2: "
                    f"inclusion broken"
                )
        return problems
