"""Page-table setups the simulator itself never makes: shared and
non-cacheable pages, written straight into a :class:`PageTable`'s
words the way an OS would."""

from repro.vm.page_table import PTE_NC, PTE_P


def share(page_table, vpn, pfn):
    """Map the untouched ``vpn`` to the existing frame ``pfn``."""
    page_table._frame_allocator.share(pfn, page_table.core_id, vpn)
    page_table._insert(vpn, (pfn << 12) | PTE_P)


def set_non_cacheable(page_table, vpn):
    """Touch ``vpn`` and set its NC bit: walks never trap to the OS."""
    page_table._store(vpn, page_table.touch(vpn) | PTE_NC)
