"""TLB directory maintained end-to-end through a NOMAD scheme."""

from repro.config.schemes import NomadConfig
from repro.schemes.base import dc_addr
from repro.core.nomad import NomadScheme
from repro.engine.simulator import Simulator
from repro.vm.page_table import frame_of
from tests.vm.pages import set_non_cacheable, share


def cached_cfn(sim, scheme, vpn, core=0):
    """Resolve a tag miss on ``vpn``; returns the CFN its PTE now holds."""
    scheme.translate_miss(core, vpn, sim.now, lambda t: None,
                          addr=vpn * 4096)
    sim.run()
    return frame_of(scheme.page_tables[core].word(vpn))


def test_directory_set_while_resident(tiny_cfg):
    sim = Simulator()
    s = NomadScheme(sim, tiny_cfg, NomadConfig())
    cfn = cached_cfn(sim, s, 3)
    assert s.frontend.cpds.tlb_directory[cfn] & 1


def test_directory_cleared_on_tlb_eviction(tiny_cfg):
    sim = Simulator()
    s = NomadScheme(sim, tiny_cfg, NomadConfig())
    cfn = cached_cfn(sim, s, 3)
    # Thrash the TLB past its L2 capacity with non-cacheable-page walks
    # (cacheable uncached pages would trap to the tag miss handler).
    for vpn in range(100, 100 + tiny_cfg.tlb.l2_entries + 8):
        set_non_cacheable(s.page_tables[0], vpn)
        s.peek_translate(0, vpn)
    assert s.frontend.cpds.tlb_directory[cfn] == 0


def test_two_cores_two_directory_bits(tiny_cfg):
    sim = Simulator()
    s = NomadScheme(sim, tiny_cfg, NomadConfig())
    cfn = cached_cfn(sim, s, 3, core=0)
    # Core 1 maps the same physical frame (shared page).
    pfn = s.frontend.cpds.pfn[cfn]
    share(s.page_tables[1], 7, pfn)
    s.page_tables[1].cache(7, cfn)
    s.tlbs[1].install(7)
    assert s.frontend.cpds.tlb_directory[cfn] == 0b11


def shared_resident_page(sim, scheme):
    """Core 0's vpn 3 and core 1's vpn 7 map one physical frame.  Core 1
    maps it non-cacheable, so its walk installs the translation without
    the OS while the page is still uncached; core 0's tag miss then
    caches the page.  Returns the CFN that tag miss committed."""
    for vpn in range(3):  # so the shared PFN differs from the CFN
        scheme.page_tables[0].touch(vpn)
    pfn = frame_of(scheme.page_tables[0].touch(3))
    share(scheme.page_tables[1], 7, pfn)
    set_non_cacheable(scheme.page_tables[1], 7)
    scheme.peek_translate(1, 7)
    assert scheme.tlbs[1].contains(7)
    cfn = cached_cfn(sim, scheme, 3, core=0)
    assert cfn != pfn
    return cfn


def test_resident_shared_translation_routes_to_committed_frame(tiny_cfg):
    sim = Simulator()
    s = NomadScheme(sim, tiny_cfg, NomadConfig())
    cfn = shared_resident_page(sim, s)
    hit = s.tlbs[1].lookup(7)  # no new walk: the translation was resident
    assert hit is not None
    assert s.page_tables[1].translate(7, 7 * 4096 + 64) == dc_addr(cfn, 64)


def test_tlb_eviction_clears_bit_of_frame_mapped_at_eviction(tiny_cfg):
    """Core 1's entry was installed while the page was uncached, so no
    bit was set then; mark core 1 as holding the frame it now reaches.
    Evicting the entry must clear that bit: the eviction hook reads what
    the page table maps when the entry leaves, not what it mapped at
    install."""
    sim = Simulator()
    s = NomadScheme(sim, tiny_cfg, NomadConfig())
    cfn = shared_resident_page(sim, s)
    directory = s.frontend.cpds.tlb_directory
    directory[cfn] |= 1 << 1
    assert directory[cfn] == 0b11
    assert s.tlbs[1].invalidate(7)
    assert directory[cfn] == 0b01
