"""Virtual memory substrate: page tables, TLBs, page descriptors.

Implements the OS data structures of Section III-C: PTEs extended with
cached (C) / non-cacheable (NC) / dirty-in-cache (DC) bits, the physical
frames' C bits and reverse mappings, cache page descriptors (CPDs) with a
TLB directory for shootdown avoidance, and two-level TLBs.
"""

from repro.vm.descriptors import CPD, DescriptorTables
from repro.vm.page_table import PTE, PageTable, touch_pages
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker

__all__ = ["CPD", "DescriptorTables", "PTE", "PageTable", "PageWalker", "TLB",
           "touch_pages"]
