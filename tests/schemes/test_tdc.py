"""TDC: blocking OS-managed cache."""

from repro.common.types import AccessType, MemAccess, TrafficClass
from repro.engine.simulator import Simulator
from repro.schemes.tdc import TDCScheme


def make(tiny_cfg):
    sim = Simulator()
    return sim, TDCScheme(sim, tiny_cfg)


def test_tag_miss_blocks_until_copy_done(tiny_cfg):
    sim, s = make(tiny_cfg)
    resumed = []
    s.translate_miss(0, 5, 0, lambda t, p: resumed.append(t), addr=5 * 4096)
    sim.run()
    # walk + 400 tag mgmt + full page copy: thousands of cycles.
    assert resumed[0] > 1000


def test_fill_traffic_both_devices(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.translate_miss(0, 5, 0, lambda t, p: None, addr=5 * 4096)
    sim.run()
    assert s.ddr.bytes_by_class()[TrafficClass.FILL] == 4096
    assert s.hbm.bytes_by_class()[TrafficClass.FILL] == 4096


def test_tag_hit_guarantees_data_hit(tiny_cfg):
    sim, s = make(tiny_cfg)
    results = []
    s.translate_miss(0, 5, 0, lambda t, p: results.append(p), addr=5 * 4096)
    sim.run()
    pte = results[-1]
    assert pte.cached
    a = MemAccess(addr=5 * 4096, access_type=AccessType.LOAD, core_id=0,
                  issue_time=sim.now)
    a.paddr = s.translate_addr(pte, a.addr)
    done = []
    s.dc_access(a, done.append)
    sim.run()
    assert done
    # Served straight from HBM: short latency, no PCSHR machinery.
    assert s.dc_access_time_mean() < 200


def test_flat_tag_latency(tiny_cfg):
    sim, s = make(tiny_cfg)
    for vpn in range(3):
        s.translate_miss(0, vpn, sim.now, lambda t, p: None, addr=vpn * 4096)
        sim.run()
    # No mutex: tag management is the flat 400 cycles.
    assert s.tag_mgmt_latency_mean() == 400


def test_dc_writeback_marks_dirty(tiny_cfg):
    sim, s = make(tiny_cfg)
    results = []
    s.translate_miss(0, 5, 0, lambda t, p: results.append(p), addr=5 * 4096)
    sim.run()
    pte = results[-1]
    ca = s.translate_addr(pte, 5 * 4096)
    s.dc_writeback(ca)
    assert s.frontend.cpds[pte.page_frame_num].dirty_in_cache


def test_warm_page(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.warm_pages([(0, 9, False)])
    pte = s.page_tables[0].lookup(9)
    assert pte.cached
    assert s.page_fills() == 0  # warm fills are unmetered
