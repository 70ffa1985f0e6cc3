"""Page-table walker: the TLB-miss penalty.

The paper treats the walk as a fixed penalty added to the (miss, *)
cases (Section III-E); page-table memory traffic is assumed to hit the
SRAM hierarchy.  We model the walk as a constant latency and count
walks so the harness can report TLB behaviour.
"""

from __future__ import annotations

from repro.common.inline_state import InlineState
from repro.config.system import TLBConfig
from repro.vm.page_table import PageTable


class PageWalker(InlineState):
    """Constant-latency walker over one core's page table."""

    def __init__(self, core_id: int, cfg: TLBConfig, page_table: PageTable):
        self.core_id = core_id
        self.cfg = cfg
        self.page_table = page_table
        self.walks = 0

    def walk(self, vpn: int) -> tuple:
        """Returns ``(pte_word, walk_latency)``; allocates the frame on
        first touch."""
        self.walks += 1
        return self.page_table.touch(vpn), self.cfg.walk_latency
