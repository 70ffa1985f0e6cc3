"""Page tables and the extended PTE word."""

import pickle

from repro.vm.descriptors import DescriptorTables
from repro.vm.page_table import (
    PTE_C,
    PageTable,
    frame_of,
    is_tag_miss,
)
from tests.vm.pages import set_non_cacheable


def test_lazy_allocation():
    t = PageTable(0, DescriptorTables())
    assert t.word(5) == 0
    word = t.touch(5)
    assert t.word(5) == word
    assert t.pages_touched == 1


def test_distinct_frames_per_page():
    tables = DescriptorTables()
    t = PageTable(0, tables)
    a = t.touch(1)
    b = t.touch(2)
    assert frame_of(a) != frame_of(b)


def test_touch_idempotent():
    t = PageTable(0, DescriptorTables())
    a = t.touch(1)
    b = t.touch(1)
    assert a == b
    assert t.pages_touched == 1


def test_tag_miss_predicate():
    t = PageTable(0, DescriptorTables())
    word = t.touch(3)
    assert is_tag_miss(word)  # cacheable, uncached
    t.cache(3, 0)
    assert not is_tag_miss(t.word(3))
    t.uncache(3, 0, frame_of(word))
    assert t.word(3) == word
    set_non_cacheable(t, 3)
    assert not is_tag_miss(t.word(3))


def test_frames_unique_across_cores():
    tables = DescriptorTables()
    t0, t1 = PageTable(0, tables), PageTable(1, tables)
    assert frame_of(t0.touch(7)) != frame_of(t1.touch(7))


def test_entries_iteration():
    t = PageTable(0, DescriptorTables())
    t.touch(1)
    t.touch(2)
    assert sorted(vpn for vpn, _ in t.entries()) == [1, 2]


def test_cache_and_uncache_route_the_translation():
    t = PageTable(0, DescriptorTables())
    pfn = frame_of(t.touch(2))
    assert t.translate(2, 2 * 4096 + 130) == pfn * 4096 + 130
    t.cache(2, 9)
    assert frame_of(t.word(2)) == 9
    assert t.translate(2, 2 * 4096 + 130) == PTE_C | (9 * 4096 + 130)
    t.uncache(2, 8, pfn)  # another frame: no change
    assert frame_of(t.word(2)) == 9
    t.uncache(2, 9, pfn)
    assert t.translate(2, 2 * 4096 + 130) == pfn * 4096 + 130


def test_sparse_vpns_leave_the_column_small():
    """A VPN far past the touched pages keeps its word off the column."""
    t = PageTable(0, DescriptorTables())
    t.touch(3)
    far = 1 << 35
    word = t.touch(far)
    assert len(t.words) == 4
    assert t.word(far) == word
    assert t.translate(far, (far << 12) + 8) == (frame_of(word) << 12) + 8
    assert [vpn for vpn, _ in t.entries()] == [3, far]


def test_grown_column_takes_over_sparse_words():
    t = PageTable(0, DescriptorTables())
    t.touch(0)
    word = t.touch(1 << 17)  # beyond the column's reach for now
    assert len(t.words) == 1
    for vpn in range(1, 20_000):
        t.touch(vpn)
    t.touch((1 << 17) + 1)  # the column now grows past the sparse VPN
    assert len(t.words) == (1 << 17) + 2
    assert t.words[1 << 17] == word
    assert t.word(1 << 17) == word
    assert t._sparse == {}


def test_page_table_pickles_as_buffers():
    t = PageTable(0, DescriptorTables())
    for vpn in range(100):
        t.touch(vpn)
    t.cache(7, 3)
    clone = pickle.loads(pickle.dumps(t))
    assert list(clone.entries()) == list(t.entries())
    assert clone.translate(7, 7 * 4096) == t.translate(7, 7 * 4096)
