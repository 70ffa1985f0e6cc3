"""Baseline scheme: DDR-only."""

from repro.common.types import MemAccess, TrafficClass
from repro.engine.simulator import Simulator
from repro.schemes.baseline import BaselineScheme


def test_all_traffic_goes_to_ddr(tiny_cfg):
    sim = Simulator()
    s = BaselineScheme(sim, tiny_cfg)
    s.page_tables[0].touch(0)
    a = MemAccess(addr=0, is_write=False, core_id=0,
                  paddr=s.page_tables[0].translate(0, 0))
    done = []
    s.dc_access(a, done.append)
    sim.run()
    assert done
    assert s.ddr.total_bytes() == 64
    assert s.hbm.total_bytes() == 0


def test_no_fills(tiny_cfg):
    sim = Simulator()
    s = BaselineScheme(sim, tiny_cfg)
    assert s.page_fills() == 0
    assert s.fill_bytes() == 0


def test_dc_access_time_recorded(tiny_cfg):
    sim = Simulator()
    s = BaselineScheme(sim, tiny_cfg)
    s.page_tables[0].touch(0)
    a = MemAccess(addr=0, is_write=False, core_id=0,
                  paddr=s.page_tables[0].translate(0, 0))
    s.dc_access(a, lambda t: None)
    sim.run()
    assert s.dc_access_time_mean() > 0


def test_translate_never_needs_os(tiny_cfg):
    sim = Simulator()
    s = BaselineScheme(sim, tiny_cfg)
    walk, needs_os = s.peek_translate(0, 7)
    assert not needs_os
    assert walk == tiny_cfg.tlb.walk_latency
    assert s.tlbs[0].lookup(7) is not None  # installed by peek
