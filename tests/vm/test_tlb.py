"""Two-level TLB with directory callbacks."""

from repro.config.system import TLBConfig
from repro.vm.tlb import TLB

CFG = TLBConfig(l1_entries=2, l2_entries=4, l2_latency=8, walk_latency=100)


def test_miss_then_install_then_hit():
    tlb = TLB(0, CFG)
    assert tlb.lookup(1) is None
    tlb.install(1)
    assert tlb.lookup(1) == 0  # L1 hit: no extra latency
    assert tlb.l1_hits == 1 and tlb.misses == 1


def test_l2_hit_pays_latency():
    tlb = TLB(0, CFG)
    for vpn in range(3):  # exceed L1 (2 entries)
        tlb.install(vpn)
    assert tlb.lookup(0) == CFG.l2_latency  # fell out of L1 but in L2
    assert tlb.l2_hits == 1


def test_l2_eviction_fires_callback():
    evicted = []
    tlb = TLB(0, CFG, on_evict=evicted.append)
    for vpn in range(5):  # exceed L2 (4 entries)
        tlb.install(vpn)
    assert evicted == [0]
    assert tlb.lookup(0) is None


def test_install_fires_callback():
    installed = []
    tlb = TLB(0, CFG, on_install=installed.append)
    tlb.install(9)
    assert installed == [9]


def test_reinstall_does_not_duplicate():
    installed = []
    tlb = TLB(0, CFG, on_install=installed.append)
    tlb.install(1)
    tlb.install(1)
    assert installed == [1]
    assert tlb.occupancy == 1


def test_invalidate_fires_evict():
    evicted = []
    tlb = TLB(0, CFG, on_evict=evicted.append)
    tlb.install(3)
    assert tlb.invalidate(3)
    assert evicted == [3]
    assert not tlb.invalidate(3)


def test_lru_within_l2():
    tlb = TLB(0, CFG)
    for vpn in range(4):
        tlb.install(vpn)
    tlb.lookup(0)  # refresh 0
    tlb.install(4)  # evicts 1, not 0
    assert tlb.contains(0)
    assert not tlb.contains(1)


def test_l1_inclusion_in_l2():
    tlb = TLB(0, CFG)
    for vpn in range(5):
        tlb.install(vpn)
    # Anything in L1 must be in L2.
    for vpn in list(tlb._l1):
        assert vpn in tlb._l2
    assert tlb.consistency_problems() == []
    assert sorted(tlb._l2) == [1, 2, 3, 4]
