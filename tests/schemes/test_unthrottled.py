"""Unthrottled characterization scheme (Table I measurements)."""

from repro.engine.simulator import Simulator
from repro.schemes.ideal import UnthrottledScheme


def test_fill_is_free_and_instant(tiny_cfg):
    sim = Simulator()
    s = UnthrottledScheme(sim, tiny_cfg)
    resumed = []
    s.translate_miss(0, 5, 0, resumed.append, addr=5 * 4096)
    sim.run()
    assert resumed[0] == tiny_cfg.tlb.walk_latency
    assert s.ddr.total_bytes() == 0
    assert s.hbm.total_bytes() == 0
    assert s.page_fills() == 1


def test_fills_counted_for_rmhb(tiny_cfg):
    sim = Simulator()
    s = UnthrottledScheme(sim, tiny_cfg)
    for vpn in range(5):
        s.translate_miss(0, vpn, sim.now, lambda t: None, addr=vpn * 4096)
        sim.run()
    assert s.fill_bytes() == 5 * 4096


def test_zero_tag_latency(tiny_cfg):
    sim = Simulator()
    s = UnthrottledScheme(sim, tiny_cfg)
    s.translate_miss(0, 0, 0, lambda t: None, addr=0)
    sim.run()
    assert s.tag_mgmt_latency_mean() == 0
