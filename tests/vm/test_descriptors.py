"""C bits, CPDs, TLB directory, reverse mappings."""

import pytest

from repro.vm.descriptors import CPD, CPDArray, DescriptorTables


def test_allocate_creates_clear_c_bit_and_rmap():
    t = DescriptorTables()
    pfn = t.allocate(0, 42)
    assert t.cached[pfn] == 0
    assert t.reverse_map(pfn) == [(0, 42)]
    assert t.frames_allocated == 1
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
    cpd = CPD(cfn=0)
    assert not cpd.in_any_tlb
    cpd.set_tlb_bit(2)
    cpd.set_tlb_bit(5)
    assert cpd.in_any_tlb
    assert cpd.tlb_directory == (1 << 2) | (1 << 5)
    cpd.clear_tlb_bit(2)
    assert cpd.tlb_directory == 1 << 5
    cpd.clear_tlb_bit(5)
    assert not cpd.in_any_tlb


def test_cpd_clear_unset_bit_is_noop():
    cpd = CPD(cfn=0)
    cpd.clear_tlb_bit(3)
    assert cpd.tlb_directory == 0


def test_cpd_array_indexing():
    arr = CPDArray(16)
    assert len(arr) == 16
    assert arr[3].cfn == 3
    arr[3].valid = True
    assert arr.valid_count() == 1


def test_cpd_array_rejects_empty():
    with pytest.raises(ValueError):
        CPDArray(0)


def test_reverse_map_unknown_is_empty():
    t = DescriptorTables()
    assert t.reverse_map(999) == []
