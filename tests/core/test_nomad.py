"""NOMAD scheme: decoupled tag-data behaviour end to end."""

import pytest

from repro.common.types import MemAccess
from repro.config.schemes import BackendTopology, NomadConfig
from repro.config.system import scaled_system
from repro.core.nomad import IdealScheme, NomadScheme
from repro.engine.simulator import Simulator
from repro.vm.page_table import PTE_C, frame_of
from tests.vm.pages import set_non_cacheable


def make(tiny_cfg, nomad_cfg=None):
    sim = Simulator()
    scheme = NomadScheme(sim, tiny_cfg, nomad_cfg or NomadConfig())
    return sim, scheme


def translate(sim, scheme, core, addr):
    """Resolve a TLB miss for ``addr``; returns (resume time, PTE word)."""
    results = []
    scheme.translate_miss(core, addr >> 12, sim.now, results.append, addr=addr)
    sim.run()
    return results[-1], scheme.page_tables[core].word(addr >> 12)


def test_more_cores_than_directory_bits_is_refused_at_build():
    with pytest.raises(ValueError, match="at most 64 cores"):
        make(scaled_system(num_cores=65, dc_megabytes=8))


def test_last_core_sets_the_top_directory_bit():
    sim, scheme = make(scaled_system(num_cores=64, dc_megabytes=8))
    _t, word = translate(sim, scheme, 63, 3 * 4096)
    assert scheme.frontend.cpds.tlb_directory[frame_of(word)] == 1 << 63


def test_tag_miss_resumes_before_fill_completes(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 5, 0, results.append, addr=5 * 4096)
    sim.run(until=scheme.nomad_cfg.tag_mgmt_latency + 400)
    assert results, "thread must resume right after tag management"
    # The fill is still outstanding in a PCSHR at resume time.
    assert results[0] < 2000


def test_tag_miss_installs_cached_translation(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    t, word = translate(sim, scheme, 0, 3 * 4096)
    assert word & PTE_C
    hit = scheme.tlbs[0].lookup(3)
    assert hit is not None


def test_tlb_directory_set_on_install(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    _, word = translate(sim, scheme, 0, 3 * 4096)
    cfn = frame_of(word)
    assert scheme.frontend.cpds.tlb_directory[cfn] & 1


def test_data_hit_goes_to_hbm(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    translate(sim, scheme, 0, 0)
    access = MemAccess(addr=0, is_write=False, core_id=0,
                       paddr=scheme.page_tables[0].translate(0, 0))
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.backend.metrics()["data_hits"] == 1


def test_data_miss_during_transfer(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 7, 0, results.append, addr=7 * 4096)
    sim.run(until=700)  # tag resolved, fill in flight
    assert results
    addr = 7 * 4096 + 63 * 64
    access = MemAccess(addr=addr, is_write=False, core_id=0,
                       paddr=scheme.page_tables[0].translate(7, addr))
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.backend.metrics()["data_misses"] == 1


def test_write_data_miss_marks_dirty(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    results = []
    scheme.translate_miss(0, 7, 0, results.append, addr=7 * 4096)
    sim.run(until=700)
    assert results
    access = MemAccess(addr=7 * 4096, is_write=True, core_id=0,
                       paddr=scheme.page_tables[0].translate(7, 7 * 4096))
    done = []
    scheme.dc_access(access, done.append)
    cfn = frame_of(scheme.page_tables[0].word(7))
    assert scheme.frontend.cpds.dirty_in_cache[cfn]
    sim.run()
    assert done


def test_uncacheable_pages_use_ddr(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    set_non_cacheable(scheme.page_tables[0], 9)
    access = MemAccess(addr=9 * 4096, is_write=False, core_id=0,
                       paddr=scheme.page_tables[0].translate(9, 9 * 4096))
    done = []
    scheme.dc_access(access, done.append)
    sim.run()
    assert done
    assert scheme.metrics()["uncached_accesses"] == 1


def test_needs_os_intervention_only_for_tag_miss(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    page_table = scheme.page_tables[0]
    assert scheme._needs_os_intervention(page_table.touch(1))
    page_table.cache(1, 0)
    assert not scheme._needs_os_intervention(page_table.word(1))


def test_distributed_topology_builds_per_channel_backends(tiny_cfg):
    sim, scheme = make(tiny_cfg, NomadConfig(num_pcshrs=16,
                                             topology=BackendTopology.DISTRIBUTED))
    assert len(scheme.backend.backends) == tiny_cfg.hbm.num_channels


def test_ideal_scheme_zero_tag_latency(tiny_cfg):
    sim = Simulator()
    scheme = IdealScheme(sim, tiny_cfg)
    results = []
    scheme.translate_miss(0, 5, 0, results.append, addr=5 * 4096)
    sim.run()
    assert results[0] == tiny_cfg.tlb.walk_latency  # no OS overhead


def test_translate_addr_spaces(tiny_cfg):
    sim, scheme = make(tiny_cfg)
    page_table = scheme.page_tables[0]
    pfn = frame_of(page_table.touch(2))
    pa = page_table.translate(2, 2 * 4096 + 128)
    assert pa == pfn * 4096 + 128
    page_table.cache(2, 5)
    ca = page_table.translate(2, 2 * 4096 + 128)
    from repro.schemes.base import dc_addr, is_dc_addr
    assert is_dc_addr(ca)
    assert ca == dc_addr(5, 128)
