"""Functional set-associative SRAM cache."""

import pytest

from repro.cache.sram_cache import SRAMCache
from repro.config.system import CacheConfig


def small(ways=2, sets=4):
    return SRAMCache(CacheConfig("t", 64 * ways * sets, ways, 1, 4))


def test_miss_then_hit():
    c = small()
    assert not c.lookup(10)
    c.insert(10, paddr=0x1000)
    assert c.lookup(10)
    assert c.hits == 1 and c.misses == 1


def test_eviction_returns_victim():
    c = SRAMCache(CacheConfig("t", 64 * 2, 2, 1, 4))  # 1 set, 2 ways
    c.insert(1, 0x100)
    c.insert(2, 0x200)
    victim = c.insert(3, 0x300)
    assert victim is not None
    assert victim.key == 1
    assert victim.paddr == 0x100


def test_lru_order_respected():
    c = SRAMCache(CacheConfig("t", 64 * 2, 2, 1, 4))
    c.insert(1, 0)
    c.insert(2, 0)
    c.lookup(1)  # 2 becomes LRU
    victim = c.insert(3, 0)
    assert victim.key == 2


def test_write_sets_dirty():
    c = small()
    c.insert(5, 0x500)
    c.lookup(5, is_write=True)
    line = c.invalidate(5)
    assert line.dirty


def test_insert_dirty():
    c = small()
    c.insert(5, 0x500, dirty=True)
    assert c.invalidate(5).dirty


def test_reinsert_merges_dirty():
    c = small()
    c.insert(5, 0x500, dirty=True)
    victim = c.insert(5, 0x600)  # refill clean
    assert victim is None
    line = c.invalidate(5)
    assert line.dirty  # dirt preserved
    assert line.paddr == 0x600


def test_invalidate_missing_returns_none():
    c = small()
    assert c.invalidate(99) is None


def test_contains_does_not_count():
    c = small()
    c.insert(1, 0)
    hits, misses = c.hits, c.misses
    assert c.contains(1)
    assert not c.contains(2)
    assert (c.hits, c.misses) == (hits, misses)


def test_update_paddr():
    c = small()
    c.insert(1, 0x100)
    c.update_paddr(1, 0x900)
    assert c.invalidate(1).paddr == 0x900


def test_hit_rate():
    c = small()
    c.insert(1, 0)
    c.lookup(1)
    c.lookup(2)
    assert c.hit_rate == pytest.approx(0.5)


def test_zero_sets_rejected():
    with pytest.raises(ValueError):
        SRAMCache(CacheConfig("t", 64, 2, 1, 4))
