"""Address arithmetic and the memory access record."""

from repro.common.types import (
    DC_SPACE_BIT,
    MemAccess,
    PAGE_SIZE,
    SUB_BLOCKS_PER_PAGE,
    line_of,
    page_offset,
    sub_block_of,
    vpn_of,
)


def test_constants_consistent():
    assert PAGE_SIZE == 4096
    assert SUB_BLOCKS_PER_PAGE == 64


def test_vpn_of():
    assert vpn_of(0) == 0
    assert vpn_of(4095) == 0
    assert vpn_of(4096) == 1
    assert vpn_of(3 * PAGE_SIZE + 17) == 3


def test_page_offset():
    assert page_offset(4096) == 0
    assert page_offset(4097) == 1
    assert page_offset(PAGE_SIZE - 1) == PAGE_SIZE - 1


def test_line_of():
    assert line_of(0) == 0
    assert line_of(63) == 0
    assert line_of(64) == 1


def test_sub_block_of_covers_page():
    assert sub_block_of(0) == 0
    assert sub_block_of(64) == 1
    assert sub_block_of(PAGE_SIZE - 1) == 63
    assert sub_block_of(PAGE_SIZE) == 0  # next page wraps


def test_dc_space_bit_clear_of_page_addresses():
    # Physical/cache frame numbers never reach the DC space bit.
    assert (100_000 * PAGE_SIZE) & DC_SPACE_BIT == 0


def test_mem_access_properties():
    a = MemAccess(addr=2 * PAGE_SIZE + 130, is_write=True, core_id=1)
    assert a.is_write
    assert a.vpn == 2
    assert a.sub_block == 2


def test_mem_access_load_is_not_write():
    a = MemAccess(addr=0, is_write=False, core_id=0)
    assert not a.is_write
    assert a.paddr is None  # untranslated until the core routes it
