"""Three-level hierarchy: latency composition, MSHRs, flush."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, LINES_PER_PAGE, line_key
from repro.common.types import MemAccess


def make(sim, tiny_cfg, misses=None, writebacks=None):
    misses = misses if misses is not None else []
    writebacks = writebacks if writebacks is not None else []

    def miss_handler(access, fill_cb):
        misses.append(access)
        # Serve from "DRAM" 100 cycles later.
        sim.schedule(100, lambda: fill_cb(sim.now + 100))

    h = CacheHierarchy(sim, tiny_cfg, miss_handler, writebacks.append)
    return h, misses, writebacks


def load(core, addr, t=0):
    return MemAccess(addr=addr, is_write=False, core_id=core, paddr=addr)


def store(core, addr, t=0):
    return MemAccess(addr=addr, is_write=True, core_id=core, paddr=addr)


def test_first_access_misses_to_dram(sim, tiny_cfg):
    h, misses, _ = make(sim, tiny_cfg)
    done = []
    r = h.access(load(0, 0x1000), 0, done.append)
    assert r is None
    sim.run()
    assert len(misses) == 1
    assert done and done[0] > 100


def test_l1_hit_is_synchronous(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    h.access(load(0, 0x1000), 0, lambda t: None)
    sim.run()
    t = h.access(load(0, 0x1000), 500, lambda t: None)
    assert t == 500 + tiny_cfg.l1.latency


def test_miss_latency_includes_sram_path(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    done = []
    h.access(load(0, 0x2000), 0, done.append)
    sim.run()
    sram = tiny_cfg.l1.latency + tiny_cfg.l2.latency + tiny_cfg.l3.latency
    assert done[0] >= sram + 100


def test_mshr_merge_single_dram_request(sim, tiny_cfg):
    h, misses, _ = make(sim, tiny_cfg)
    done = []
    h.access(load(0, 0x3000), 0, done.append)
    h.access(load(0, 0x3000), 1, done.append)
    sim.run()
    assert len(misses) == 1
    assert len(done) == 2


def test_different_lines_issue_separately(sim, tiny_cfg):
    h, misses, _ = make(sim, tiny_cfg)
    h.access(load(0, 0x3000), 0, lambda t: None)
    h.access(load(0, 0x3040), 0, lambda t: None)
    sim.run()
    assert len(misses) == 2


def test_mshr_overflow_eventually_serviced(sim, tiny_cfg):
    h, misses, _ = make(sim, tiny_cfg)
    done = []
    n = tiny_cfg.l3.mshrs + 8
    for i in range(n):
        h.access(load(0, 0x10000 + i * 64), 0, done.append)
    sim.run()
    assert len(done) == n
    assert len(misses) == n
    assert h.mshrs.overflow_events == 8


def test_line_key_separates_cores(sim, tiny_cfg):
    assert line_key(0, 0x1000) != line_key(1, 0x1000)


def test_cores_do_not_share_private_levels(sim, tiny_cfg):
    h, misses, _ = make(sim, tiny_cfg)
    h.access(load(0, 0x1000), 0, lambda t: None)
    sim.run()
    r = h.access(load(1, 0x1000), 100, lambda t: None)
    assert r is None  # core 1 misses privately
    sim.run()
    assert len(misses) == 2


def test_dirty_l3_eviction_writes_back(sim, tiny_cfg):
    h, _, wbs = make(sim, tiny_cfg)
    # Fill far more lines than L3 holds, all written.
    capacity_lines = tiny_cfg.l3.size_bytes // 64
    for i in range(capacity_lines + 512):
        h.access(store(0, i * 64), 0, lambda t: None)
    sim.run()
    assert len(wbs) > 0


def test_invalidate_page_removes_lines(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    vpn = 7
    for i in range(LINES_PER_PAGE):
        h.access(load(0, vpn * 4096 + i * 64), 0, lambda t: None)
    sim.run()
    h.invalidate_page(0, vpn)
    r = h.access(load(0, vpn * 4096), 10_000, lambda t: None)
    assert r is None  # flushed: misses again


def test_invalidate_page_returns_dirty_line_addrs(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    h.access(store(0, 9 * 4096), 0, lambda t: None)
    sim.run()
    dirty = h.invalidate_page(0, 9)
    assert dirty == [9 * 4096]


def test_invalidate_page_merges_levels_per_line(sim, tiny_cfg):
    """A line is dirty if any level's copy is, takes its address from the
    last level holding it, and dirty addresses come back in key order."""
    h, _, _ = make(sim, tiny_cfg)
    base = line_key(1, 3 * 4096)
    l1, l2, l3 = h.l1[1], h.l2[1], h.l3
    l3.insert(base + 40, 0xD3, dirty=True)   # L3 only, dirty
    l2.insert(base + 20, 0xC2)               # clean everywhere
    l3.insert(base + 20, 0xC3)
    l1.insert(base + 7, 0xB1, dirty=True)    # dirty in L1, address from L3
    l3.insert(base + 7, 0xB3)
    l1.insert(base + 2, 0xA1)                # dirty in L2 only
    l2.insert(base + 2, 0xA2, dirty=True)
    l1.insert(base + LINES_PER_PAGE, 0xE1, dirty=True)  # next page
    assert h.invalidate_page(1, 3) == [0xA2, 0xB3, 0xD3]
    assert all(not c.contains(base + k) for c in (l1, l2, l3)
               for k in (2, 7, 20, 40))
    assert l1.contains(base + LINES_PER_PAGE)


def test_retarget_page_changes_writeback_target(sim, tiny_cfg):
    h, _, wbs = make(sim, tiny_cfg)
    h.access(store(0, 5 * 4096), 0, lambda t: None)
    sim.run()
    h.retarget_page(0, 5, 99 * 4096)
    dirty = h.invalidate_page(0, 5)
    assert dirty == [99 * 4096]


def test_pending_dirty_from_merged_store(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    h.access(load(0, 0x8000), 0, lambda t: None)  # miss outstanding
    h.access(store(0, 0x8000), 1, lambda t: None)  # merges as store
    sim.run()
    dirty = h.invalidate_page(0, 0x8000 >> 12)
    assert 0x8000 in dirty


def test_llc_counters(sim, tiny_cfg):
    h, _, _ = make(sim, tiny_cfg)
    h.access(load(0, 0x1000), 0, lambda t: None)
    sim.run()
    h.access(load(0, 0x1000), 1000, lambda t: None)
    assert h.metrics()["llc_misses"] == 1
    assert h.metrics()["llc_accesses"] == 1
