"""NOMAD scheme: decoupled tag-data behaviour end to end."""

import pytest

from repro.common.types import AccessType, MemAccess
from repro.config.schemes import BackendTopology, NomadConfig
from repro.core.nomad import IdealScheme, NomadScheme
from repro.engine.simulator import Simulator


def make(tiny_cfg, nomad_cfg=None):
    sim = Simulator()
    scheme = NomadScheme(sim, tiny_cfg, nomad_cfg or NomadConfig())
    return sim, scheme


def translate(sim, scheme, core, addr):
    results = []
    scheme.translate_miss(core, addr >> 12, sim.now, lambda t, p: results.append((t, p)),
                          addr=addr)
    sim.run()
    return results[-1]


def test_tag_miss_resumes_before_fill_completes(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 5, 0, lambda t, p: results.append(t), addr=5 * 4096)
    sim.run(until=scheme.nomad_cfg.tag_mgmt_latency + 400)
    assert results, "thread must resume right after tag management"
    # The fill is still outstanding in a PCSHR at resume time.
    assert results[0] < 2000


def test_tag_miss_installs_cached_translation(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    t, pte = translate(sim, scheme, 0, 3 * 4096)
    assert pte.cached
    hit = scheme.tlbs[0].lookup(3)
    assert hit is not None


def test_tlb_directory_set_on_install(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    _, pte = translate(sim, scheme, 0, 3 * 4096)
    cfn = pte.page_frame_num
    assert scheme.frontend.cpds[cfn].tlb_directory & 1


def test_data_hit_goes_to_hbm(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    _, pte = translate(sim, scheme, 0, 0)
    access = MemAccess(addr=0, access_type=AccessType.LOAD, core_id=0, issue_time=sim.now)
    access.paddr = scheme.translate_addr(pte, 0)
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.backend.stats.get("data_hits").value == 1


def test_data_miss_during_transfer(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 7, 0, lambda t, p: results.append((t, p)), addr=7 * 4096)
    sim.run(until=700)  # tag resolved, fill in flight
    t, pte = results[-1]
    access = MemAccess(addr=7 * 4096 + 63 * 64, access_type=AccessType.LOAD,
                       core_id=0, issue_time=sim.now)
    access.paddr = scheme.translate_addr(pte, access.addr)
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.backend.stats.get("data_misses").value == 1


def test_write_data_miss_marks_dirty(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 7, 0, lambda t, p: results.append(p), addr=7 * 4096)
    sim.run(until=700)
    pte = results[-1]
    access = MemAccess(addr=7 * 4096, access_type=AccessType.STORE,
                       core_id=0, issue_time=sim.now)
    access.paddr = scheme.translate_addr(pte, access.addr)
    done = []
    scheme.dc_access(access, done.append)
    cfn = pte.page_frame_num
    assert scheme.frontend.cpds[cfn].dirty_in_cache
    sim.run()
    assert done


def test_uncacheable_pages_use_ddr(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    pte = scheme.page_tables[0].get_or_create(9)
    pte.non_cacheable = True
    access = MemAccess(addr=9 * 4096, access_type=AccessType.LOAD, core_id=0,
                       issue_time=0)
    access.paddr = scheme.translate_addr(pte, access.addr)
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.stats.get("uncached_accesses").value == 1


def test_needs_os_intervention_only_for_tag_miss(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    pte = scheme.page_tables[0].get_or_create(1)
    assert scheme._needs_os_intervention(pte)
    pte.cached = True
    assert not scheme._needs_os_intervention(pte)


def test_distributed_topology_builds_per_channel_backends(tiny_cfg):
    sim, scheme = make(tiny_cfg, NomadConfig(num_pcshrs=16,
                                             topology=BackendTopology.DISTRIBUTED))
    assert len(scheme.backend.backends) == tiny_cfg.hbm.num_channels


def test_ideal_scheme_zero_tag_latency(tiny_cfg):
    sim = Simulator()
    scheme = IdealScheme(sim, tiny_cfg)
    results = []
    scheme.translate_miss(0, 5, 0, lambda t, p: results.append(t), addr=5 * 4096)
    sim.run()
    assert results[0] == tiny_cfg.tlb.walk_latency  # no OS overhead


def test_translate_addr_spaces(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    pte = scheme.page_tables[0].get_or_create(2)
    pa = scheme.translate_addr(pte, 2 * 4096 + 128)
    assert pa == pte.page_frame_num * 4096 + 128
    pte.cached = True
    pte.page_frame_num = 5
    ca = scheme.translate_addr(pte, 2 * 4096 + 128)
    from repro.schemes.base import is_dc_addr
    assert is_dc_addr(ca)
