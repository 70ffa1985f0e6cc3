"""C bits, CPD columns, TLB directory, reverse mappings."""

import pytest

from repro.vm.descriptors import CPDArray, DescriptorTables


def test_allocate_creates_clear_c_bit_and_rmap():
    t = DescriptorTables()
    pfn = t.allocate(0, 42)
    assert t.cached[pfn] == 0
    assert t.reverse_map(pfn) == [(0, 42)]
    assert len(t.cached) == 1
    assert t.allocate(1, 42) == pfn + 1


def test_share_extends_rmap():
    t = DescriptorTables()
    pfn = t.allocate(0, 42)
    t.share(pfn, 1, 99)
    assert t.reverse_map(pfn) == [(0, 42), (1, 99)]


def test_share_unknown_pfn_raises():
    t = DescriptorTables()
    with pytest.raises(KeyError):
        t.share(123, 0, 0)


def test_cpd_tlb_directory_bits():
    directory = CPDArray(1).tlb_directory
    assert not directory[0]
    directory[0] |= 1 << 2
    directory[0] |= 1 << 5
    assert directory[0]
    assert directory[0] == (1 << 2) | (1 << 5)
    directory[0] &= ~(1 << 2)
    assert directory[0] == 1 << 5
    directory[0] &= ~(1 << 5)
    assert not directory[0]


def test_cpd_clear_unset_bit_is_noop():
    directory = CPDArray(1).tlb_directory
    directory[0] &= ~(1 << 3)
    assert directory[0] == 0


def test_cpd_directory_holds_64_cores():
    directory = CPDArray(1).tlb_directory
    directory[0] |= 1 << 63
    assert directory[0] == 1 << 63


def test_cpd_array_indexing():
    arr = CPDArray(16)
    assert len(arr) == 16
    assert (arr.valid[3], arr.dirty_in_cache[3], arr.pfn[3],
            arr.tlb_directory[3]) == (0, 0, 0, 0)
    arr.valid[3] = 1
    assert arr.valid.count(1) == 1


def test_cpd_array_rejects_empty():
    with pytest.raises(ValueError):
        CPDArray(0)


def test_reverse_map_unknown_is_empty():
    t = DescriptorTables()
    assert t.reverse_map(999) == []
