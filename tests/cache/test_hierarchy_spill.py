"""Dirty-victim spill paths through the inclusive hierarchy."""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import MemAccess
from repro.config.system import CacheConfig, scaled_system
import dataclasses


def tiny_hier(sim):
    cfg = scaled_system(num_cores=1, dc_megabytes=8)
    cfg = dataclasses.replace(
        cfg,
        l1=CacheConfig("l1", 2 * 64 * 2, 2, 1, 4),   # 2 sets x 2 ways
        l2=CacheConfig("l2", 4 * 64 * 2, 2, 2, 4),
        l3=CacheConfig("l3", 8 * 64 * 2, 2, 3, 8),
    )
    wbs = []

    def miss(access, cb):
        sim.schedule(10, lambda: cb(sim.now + 10))

    return CacheHierarchy(sim, cfg, miss, wbs.append), wbs


def store(addr):
    return MemAccess(addr=addr, is_write=True, core_id=0, paddr=addr)


def test_dirty_data_survives_l1_eviction(sim):
    h, wbs = tiny_hier(sim)
    # Write a line, then push it out of tiny L1 with conflicting fills.
    h.access(store(0x0000), sim.now, lambda t: None)
    sim.run()
    for i in range(1, 6):
        h.access(store(i * 128), sim.now, lambda t: None)  # same L1 set stride
        sim.run()
    # The dirty line is either still in L2/L3 (dirt merged downward) or
    # was written back; flushing must account for it exactly once.
    dirty = h.invalidate_page(0, 0)
    total_dirty_events = len(dirty) + len(wbs)
    assert total_dirty_events >= 1


def test_back_invalidate_collects_upper_dirt(sim):
    h, wbs = tiny_hier(sim)
    h.access(store(0x0000), sim.now, lambda t: None)
    sim.run()
    # Thrash L3 set 0 until the inclusive eviction back-invalidates L1/L2.
    for i in range(1, 24):
        h.access(store(i * 64 * 2), sim.now, lambda t: None)
        sim.run()
    assert wbs, "dirty line must eventually reach the writeback handler"
