"""Virtual memory substrate: page tables, TLBs, page descriptors.

Implements the OS data structures of Section III-C as packed words and
flat columns: PTEs with cached (C) / non-cacheable (NC) bits, the
physical frames' C bits and reverse mappings, cache page descriptors
(CPDs) with a dirty-in-cache (DC) bit and a TLB directory for shootdown
avoidance, and two-level TLBs.
"""

from repro.vm.descriptors import CPDArray, DescriptorTables
from repro.vm.page_table import PageTable, touch_pages
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker

__all__ = ["CPDArray", "DescriptorTables", "PageTable", "PageWalker", "TLB",
           "touch_pages"]
