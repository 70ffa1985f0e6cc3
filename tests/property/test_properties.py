"""Property-based tests (hypothesis) for core data structures."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.mshr import MSHRFile
from repro.cache.sram_cache import SRAMCache
from repro.common.bitvector import BitVector
from repro.common.types import TrafficClass
from repro.core.free_queue import FreeQueue
from repro.config.dram import DDR4_3200, HBM2
from repro.config.system import CacheConfig
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Simulator
from repro.schemes.tid import TiDTagArray
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
    assert cache.insert(10, paddr=0).key == recency[0]


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
            assert not cpds.valid[cfn]
            cpds.valid[cfn] = 1
            allocated.append(cfn)
        elif op == "free" and allocated:
            # FIFO reclamation from the tail side.
            cfn = allocated.pop(0)
            cpds.valid[cfn] = 0
            fq.mark_freed()
        assert 0 <= fq.num_free <= 16
        assert fq.allocated == len(allocated)
        assert sum(1 for i in range(16) if cpds.valid[i]) == len(allocated)


# -- Address map ------------------------------------------------------------------

@given(st.integers(0, 2**34), st.sampled_from([HBM2, DDR4_3200]))
def test_address_map_decode_in_range(addr, cfg):
    """A burst at any address lands on one channel and one bank."""
    dev = DRAMDevice(Simulator(), "dev", cfg, 3.6)
    dev.access(addr, False, TrafficClass.DEMAND)
    touched = [(c, b) for c, ch in enumerate(dev.channels)
               for b, bank in enumerate(ch.banks) if bank.open_row is not None]
    assert len(touched) == 1
    c, b = touched[0]
    assert dev.channels[c].reads == 1
    assert dev.channels[c].banks[b].open_row >= 0


@given(st.integers(0, 2**30))
def test_address_map_same_burst_same_location(addr):
    dev = DRAMDevice(Simulator(), "dev", HBM2, 3.6)
    base = (addr >> 6) << 6
    dev.access(base, False, TrafficClass.DEMAND)
    dev.access(base + 63, False, TrafficClass.DEMAND)
    assert sum(ch.row_hits for ch in dev.channels) == 1
    assert sum(ch.reads for ch in dev.channels) == 2


# -- TiD tag array ----------------------------------------------------------------

@given(st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=200),
       st.integers(1, 4), st.integers(1, 6))
def test_tid_way_allocation_matches_smallest_free_way(ops, num_sets, ways):
    """``allocate`` fills a non-full set at way ``len(set)``; that is the
    same choice as the smallest way no resident line holds."""
    tags = TiDTagArray(num_sets, ways)
    model = [OrderedDict() for _ in range(num_sets)]  # line -> way, LRU first
    for allocate, line in ops:
        s = model[line % num_sets]
        if not allocate or line in s:
            assert (tags.lookup(line) is not None) == (line in s)
            if line in s:
                s.move_to_end(line)
            continue
        victim = None
        if len(s) >= ways:
            victim_id, way = s.popitem(last=False)
            victim = (victim_id, way, False)
        else:
            way = min(set(range(ways)) - set(s.values()))
        s[line] = way
        assert tags.allocate(line) == (way, victim)
