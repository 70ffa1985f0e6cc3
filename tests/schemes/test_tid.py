"""TiD: HW-based tags-in-DRAM cache."""

import pytest

from repro.common.types import MemAccess, TrafficClass
from repro.config.schemes import TiDConfig
from repro.engine.simulator import Simulator
from repro.schemes.tid import TiDScheme, TiDTagArray
from repro.vm.page_table import frame_of


def make(tiny_cfg, tid_cfg=None):
    sim = Simulator()
    return sim, TiDScheme(sim, tiny_cfg, tid_cfg or TiDConfig())


def load(addr, w=False):
    return MemAccess(addr=addr, is_write=w, core_id=0, paddr=addr)


# -- tag array ---------------------------------------------------------

def test_tag_array_allocate_and_lookup():
    t = TiDTagArray(num_sets=4, ways=2)
    way, victim = t.allocate(0)
    assert victim is None
    assert t.lookup(0) == way << 1  # clean


def test_tag_array_lru_victim():
    t = TiDTagArray(num_sets=1, ways=2)
    t.allocate(0)
    t.allocate(1)
    t.lookup(0)  # refresh
    way, victim = t.allocate(2)
    assert victim[0] == 1  # line 1 evicted
    assert way == victim[1]


def test_tag_array_dirty_tracking():
    t = TiDTagArray(num_sets=1, ways=2)
    t.allocate(0)
    t.allocate(1)
    t.mark_dirty(0)
    _, victim = t.allocate(2)  # evicts line 0 (LRU)
    assert victim is not None
    victim_line, _, victim_dirty = victim
    assert victim_line == 0
    assert victim_dirty


def test_tag_array_duplicate_raises():
    t = TiDTagArray(4, 2)
    t.allocate(0)
    with pytest.raises(KeyError):
        t.allocate(0)


# -- scheme ------------------------------------------------------------

def test_miss_fetches_line_from_ddr(tiny_cfg):
    sim, s = make(tiny_cfg)
    done = []
    s.dc_access(load(0x4000), done.append)
    sim.run()
    assert done
    assert s.ddr.bytes_by_class()[TrafficClass.FILL] == 1024  # one 1 KB line
    assert s.hbm.bytes_by_class()[TrafficClass.FILL] == 1024


def test_every_access_pays_metadata_bandwidth(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.dc_access(load(0x4000), lambda t: None)
    sim.run()
    s.dc_access(load(0x4000), lambda t: None)  # now a hit
    sim.run()
    meta = s.hbm.bytes_by_class()[TrafficClass.METADATA]
    assert meta >= 3 * 64  # 2 tag reads + >=1 tag update


def test_hit_after_fill(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.dc_access(load(0x4000), lambda t: None)
    sim.run()
    s.dc_access(load(0x4000), lambda t: None)
    sim.run()
    assert s.metrics()["dc_hits"] == 1
    assert s.dc_hit_rate() == pytest.approx(0.5)


def test_mshr_merge_same_line(tiny_cfg):
    sim, s = make(tiny_cfg)
    done = []
    s.dc_access(load(0x4000), done.append)
    s.dc_access(load(0x4040), done.append)  # same 1 KB line
    sim.run()
    assert len(done) == 2
    assert s.metrics()["line_fills"] == 1


def test_critical_word_first(tiny_cfg):
    """The demanded sub-block responds before the full line lands."""
    sim, s = make(tiny_cfg)
    done = []
    s.dc_access(load(0x4000 + 0x3C0), done.append)  # last 64B of the line
    sim.run()
    fills_end = sim.now
    assert done[0] <= fills_end


def test_dirty_victim_writes_back(tiny_cfg):
    sim, s = make(tiny_cfg)
    sets = s.tags.num_sets
    ways = s.tid_cfg.ways
    # Fill one set completely with writes, then overflow it.
    for i in range(ways + 1):
        s.dc_access(load((i * sets) * 1024, w=True), lambda t: None)
        sim.run()
    assert s.metrics()["line_writebacks"] >= 1
    assert s.ddr.bytes_by_class().get(TrafficClass.WRITEBACK, 0) >= 1024


def test_llc_writeback_to_present_line(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.dc_access(load(0x4000), lambda t: None)
    sim.run()
    s.dc_writeback(0x4000)
    rec = s.tags.lookup(s._line_id(0x4000), touch=False)
    assert rec & 1  # dirty


def test_llc_writeback_to_absent_line_goes_ddr(tiny_cfg):
    sim, s = make(tiny_cfg)
    before = s.ddr.total_bytes()
    s.dc_writeback(0x9000)
    assert s.ddr.total_bytes() == before + 64


def test_warm_page_preinstalls_lines(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.warm_pages([(0, 2, False), (1, 2, True)])
    for core, dirty in ((0, 0), (1, 1)):
        base_line = (frame_of(s.page_tables[core].word(2)) * 4096) >> 10
        for i in range(4):
            assert s.tags.lookup(base_line + i, touch=False) & 1 == dirty


def test_fill_bytes_uses_line_size(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.dc_access(load(0x4000), lambda t: None)
    sim.run()
    assert s.fill_bytes() == 1024
