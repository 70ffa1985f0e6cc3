"""TDC: blocking OS-managed cache."""

from repro.common.types import MemAccess, TrafficClass
from repro.engine.simulator import Simulator
from repro.schemes.tdc import TDCScheme
from repro.vm.page_table import PTE_C, frame_of


def make(tiny_cfg):
    sim = Simulator()
    return sim, TDCScheme(sim, tiny_cfg)


def test_tag_miss_blocks_until_copy_done(tiny_cfg):
    sim, s = make(tiny_cfg)
    resumed = []
    s.translate_miss(0, 5, 0, resumed.append, addr=5 * 4096)
    sim.run()
    # walk + 400 tag mgmt + full page copy: thousands of cycles.
    assert resumed[0] > 1000


def test_fill_traffic_both_devices(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.translate_miss(0, 5, 0, lambda t: None, addr=5 * 4096)
    sim.run()
    assert s.ddr.bytes_by_class()[TrafficClass.FILL] == 4096
    assert s.hbm.bytes_by_class()[TrafficClass.FILL] == 4096


def test_tag_hit_guarantees_data_hit(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.translate_miss(0, 5, 0, lambda t: None, addr=5 * 4096)
    sim.run()
    assert s.page_tables[0].word(5) & PTE_C
    a = MemAccess(addr=5 * 4096, is_write=False, core_id=0,
                  paddr=s.page_tables[0].translate(5, 5 * 4096))
    done = []
    s.dc_access(a, done.append)
    sim.run()
    assert done
    # Served straight from HBM: short latency, no PCSHR machinery.
    assert s.dc_access_time_mean() < 200


def test_flat_tag_latency(tiny_cfg):
    sim, s = make(tiny_cfg)
    for vpn in range(3):
        s.translate_miss(0, vpn, sim.now, lambda t: None, addr=vpn * 4096)
        sim.run()
    # No mutex: tag management is the flat 400 cycles.
    assert s.tag_mgmt_latency_mean() == 400


def test_dc_writeback_marks_dirty(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.translate_miss(0, 5, 0, lambda t: None, addr=5 * 4096)
    sim.run()
    ca = s.page_tables[0].translate(5, 5 * 4096)
    s.dc_writeback(ca)
    cfn = frame_of(s.page_tables[0].word(5))
    assert s.frontend.cpds.dirty_in_cache[cfn]


def test_warm_page(tiny_cfg):
    sim, s = make(tiny_cfg)
    s.warm_pages([(0, 9, False)])
    assert s.page_tables[0].word(9) & PTE_C
    assert s.page_fills() == 0  # warm fills are unmetered
