"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import given, settings, strategies as st

from repro.cache.mshr import MSHRFile
from repro.cache.sram_cache import SRAMCache
from repro.common.bitvector import BitVector
from repro.core.free_queue import FreeQueue
from repro.dram.address_map import AddressMap
from repro.config.dram import DDR4_3200, HBM2
from repro.config.system import CacheConfig
from repro.vm.descriptors import CPDArray


# -- BitVector ------------------------------------------------------------

@given(st.sets(st.integers(0, 63)))
def test_bitvector_count_matches_set(bits):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    assert bv.count() == len(bits)
    for i in range(64):
        assert bv.test(i) == (i in bits)


@given(st.sets(st.integers(0, 63)), st.integers(0, 64))
def test_bitvector_first_zero_is_correct(bits, start):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    expected = next((i for i in range(start, 64) if i not in bits), -1)
    assert bv.first_zero(start) == expected


@given(st.sets(st.integers(0, 63)))
def test_bitvector_set_clear_roundtrip(bits):
    bv = BitVector(64)
    for b in bits:
        bv.set(b)
    for b in bits:
        bv.clear(b)
    assert not bv.any_set


# -- SRAM cache replacement ----------------------------------------------------

@given(st.lists(st.integers(0, 9), min_size=1, max_size=60))
def test_lru_victim_is_least_recent(refs):
    """Model check of SRAMCache's LRU order against an explicit
    recency list: one full set, then a fill must evict the LRU line."""
    ways = len(set(refs))
    cache = SRAMCache(CacheConfig("set", size_bytes=64 * ways, ways=ways,
                                  latency=1, mshrs=1))
    recency = []
    for key in refs:
        if key in recency:
            assert cache.lookup(key)
            recency.remove(key)
        else:
            assert cache.insert(key, paddr=0) is None
        recency.append(key)
    assert cache.insert("new", paddr=0).key == recency[0]


# -- MSHR file -----------------------------------------------------------------

@given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
       st.integers(1, 4))
def test_mshr_conservation(keys, capacity):
    """Every waiter is eventually notified exactly once."""
    m = MSHRFile(capacity)
    notified = []
    issued = []
    for i, key in enumerate(keys):
        outcome = m.allocate(key, i, lambda t, i=i: notified.append(i))
        if outcome == "new":
            issued.append(key)
    # Retire in issue order, draining overflow as slots free.
    while issued:
        key = issued.pop(0)
        for w in m.retire(key, 0):
            w(0)
        issued.extend(m.drain_overflow(0))
    assert sorted(notified) == list(range(len(keys)))


# -- Free queue -----------------------------------------------------------------

@given(st.lists(st.sampled_from(["alloc", "free"]), max_size=64))
def test_free_queue_accounting_invariant(ops):
    fq, cpds = FreeQueue(16), CPDArray(16)
    allocated = []
    for op in ops:
        if op == "alloc" and fq.num_free > 0:
            cfn = fq.allocate(cpds)
            assert not cpds[cfn].valid
            cpds[cfn].valid = True
            allocated.append(cfn)
        elif op == "free" and allocated:
            # FIFO reclamation from the tail side.
            cfn = allocated.pop(0)
            cpds[cfn].valid = False
            fq.mark_freed()
        assert 0 <= fq.num_free <= 16
        assert fq.allocated == len(allocated)
        assert sum(1 for i in range(16) if cpds[i].valid) == len(allocated)


# -- Address map ------------------------------------------------------------------

@given(st.integers(0, 2**34), st.sampled_from([HBM2, DDR4_3200]))
def test_address_map_decode_in_range(addr, cfg):
    am = AddressMap(cfg)
    d = am.decode(addr)
    assert 0 <= d.channel < cfg.num_channels
    assert 0 <= d.bank < cfg.banks_per_channel
    assert d.row >= 0


@given(st.integers(0, 2**30))
def test_address_map_same_burst_same_location(addr):
    am = AddressMap(HBM2)
    base = (addr >> 6) << 6
    assert am.decode(base) == am.decode(base + 63)
