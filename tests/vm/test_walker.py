"""Page walker."""

from repro.config.system import TLBConfig
from repro.vm.descriptors import DescriptorTables
from repro.vm.page_table import PageTable
from repro.vm.walker import PageWalker


def test_walk_returns_pte_and_latency():
    cfg = TLBConfig(walk_latency=120)
    pt = PageTable(0, DescriptorTables())
    w = PageWalker(0, cfg, pt)
    word, lat = w.walk(7)
    assert lat == 120
    assert word == pt.word(7)
    assert w.walks == 1


def test_walk_allocates_on_first_touch():
    pt = PageTable(0, DescriptorTables())
    w = PageWalker(0, TLBConfig(), pt)
    assert pt.word(3) == 0
    w.walk(3)
    assert pt.word(3) != 0
