"""Front-end OS routines: tag miss handler + eviction daemon."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import MemAccess
from repro.config.dram import HBM2, scaled_dram
from repro.config.system import scaled_system
from repro.core.frontend import DataManager, FrontEnd
from repro.dram.device import DRAMDevice
from repro.vm.descriptors import DescriptorTables
from repro.vm.page_table import PTE_C, PageTable, frame_of, touch_pages
from repro.vm.tlb import TLB
from tests.vm.pages import share


class RecordingManager(DataManager):
    """Accepts everything instantly; records calls."""

    def __init__(self, sim):
        self.sim = sim
        self.fills = []
        self.writebacks = []
        self.busy = set()

    def fill(self, cfn, pfn, sub_block, on_offloaded, on_resume):
        self.fills.append((cfn, pfn, sub_block))
        on_offloaded()
        on_resume(self.sim.now)

    def writeback(self, cfn, pfn, on_offloaded):
        self.writebacks.append((cfn, pfn))
        on_offloaded()

    def frame_busy(self, cfn):
        return cfn in self.busy


class World:
    def __init__(self, sim, num_frames=32, use_mutex=True, threshold=4, batch=2,
                 tag_latency=400):
        cfg = scaled_system(num_cores=2, dc_megabytes=8)
        object.__setattr__(cfg, "__dict__", dict(cfg.__dict__))  # no-op for frozen
        self.tables = DescriptorTables()
        self.page_tables = [PageTable(i, self.tables) for i in range(2)]
        self.hierarchy = CacheHierarchy(sim, cfg, lambda a, cb: None, lambda p: None)
        self.hbm = DRAMDevice(sim, "hbm", scaled_dram(HBM2, 1 << 24), 3.6)
        self.manager = RecordingManager(sim)
        import dataclasses
        cfg_small = dataclasses.replace(cfg, dc_pages=num_frames)
        self.fe = FrontEnd(
            sim, cfg_small, self.manager, self.page_tables, self.tables,
            self.hierarchy, self.hbm,
            use_mutex=use_mutex, tag_mgmt_latency=tag_latency,
            eviction_threshold=threshold, eviction_batch=batch, eviction_cost=10,
        )
        self.tlbs = [TLB(i, cfg.tlb,
                         on_install=lambda vpn, i=i: self.fe.tlb_changed(i, vpn, True),
                         on_evict=lambda vpn, i=i: self.fe.tlb_changed(i, vpn, False))
                     for i in range(2)]
        self.fe.attach_tlbs(self.tlbs)

    def fault(self, sim, core, vpn, done):
        self.page_tables[core].touch(vpn)
        self.fe.handle_tag_miss(core, vpn, vpn * 4096, done)

    def cached(self, core, vpn) -> bool:
        return bool(self.page_tables[core].word(vpn) & PTE_C)

    def frame(self, core, vpn) -> int:
        """The PTE's frame field: the CFN while cached, else the PFN."""
        return frame_of(self.page_tables[core].word(vpn))


def test_tag_miss_updates_pte_and_cpd(sim):
    w = World(sim)
    done = []
    w.fault(sim, 0, 5, done.append)
    sim.run()
    assert done and done[0] >= 400
    assert w.cached(0, 5)
    cfn = w.frame(0, 5)
    cpds = w.fe.cpds
    assert cpds.valid[cfn]
    pfn = cpds.pfn[cfn]
    assert w.tables.reverse_map(pfn) == [(0, 5)]
    assert w.tables.cached[pfn]
    assert w.manager.fills == [(cfn, pfn, 0)]


def test_tag_latency_includes_base_cost(sim):
    w = World(sim, tag_latency=400)
    w.fault(sim, 0, 1, lambda t: None)
    sim.run()
    assert w.fe.stats.get("tag_mgmt_latency").mean >= 400


def test_mutex_serializes_handlers(sim):
    w = World(sim)
    times = []
    w.fault(sim, 0, 1, times.append)
    w.fault(sim, 1, 2, times.append)
    sim.run()
    # Second handler queued behind the first: ~800 total.
    assert times[1] >= 800


def test_no_mutex_handlers_overlap(sim):
    w = World(sim, use_mutex=False)
    times = []
    w.fault(sim, 0, 1, times.append)
    w.fault(sim, 1, 2, times.append)
    sim.run()
    assert times[1] < 800


def test_fifo_frame_allocation(sim):
    w = World(sim)
    for vpn in range(3):
        w.fault(sim, 0, vpn, lambda t: None)
    sim.run()
    assert [w.frame(0, vpn) for vpn in range(3)] == [0, 1, 2]


def test_daemon_triggers_below_threshold(sim):
    w = World(sim, num_frames=8, threshold=4, batch=2)
    for vpn in range(6):
        w.fault(sim, 0, vpn, lambda t: None)
        sim.run()
    assert w.fe.stats.get("evictions").value > 0


def test_eviction_restores_pte(sim):
    w = World(sim, num_frames=8, threshold=6, batch=4)
    for vpn in range(4):
        w.fault(sim, 0, vpn, lambda t: None)
    sim.run()
    evicted = [vpn for vpn in range(4) if not w.cached(0, vpn)]
    assert evicted, "daemon should have evicted something"
    for vpn in evicted:
        assert not w.tables.cached[w.frame(0, vpn)]


def test_eviction_skips_tlb_resident(sim):
    w = World(sim, num_frames=8, threshold=6, batch=4)
    w.fault(sim, 0, 0, lambda t: None)
    sim.run()
    w.tlbs[0].install(0)  # now TLB-resident
    for vpn in range(1, 4):
        w.fault(sim, 0, vpn, lambda t: None)
        sim.run()
    assert w.cached(0, 0), "TLB-resident frame must not be evicted"
    assert w.fe.stats.get("eviction_tlb_skips").value > 0


def test_eviction_skips_busy_fills(sim):
    w = World(sim, num_frames=8, threshold=6, batch=4)
    w.fault(sim, 0, 0, lambda t: None)
    sim.run()
    w.manager.busy.add(w.frame(0, 0))  # fill still in flight
    for vpn in range(1, 4):
        w.fault(sim, 0, vpn, lambda t: None)
        sim.run()
    assert w.cached(0, 0)
    assert w.fe.stats.get("eviction_busy_skips").value > 0


def test_dirty_frame_writes_back(sim):
    w = World(sim, num_frames=8, threshold=6, batch=4)
    w.fault(sim, 0, 0, lambda t: None)
    sim.run()
    w.fe.cpds.dirty_in_cache[w.frame(0, 0)] = 1
    for vpn in range(1, 4):
        w.fault(sim, 0, vpn, lambda t: None)
        sim.run()
    assert w.manager.writebacks


def test_handler_waits_for_free_frame(sim):
    """All frames allocated and TLB-resident: forced shootdown path."""
    w = World(sim, num_frames=4, threshold=0, batch=2)
    for vpn in range(4):
        w.fault(sim, 0, vpn, lambda t: None)
        sim.run()
        w.tlbs[0].install(vpn)
    done = []
    w.fault(sim, 0, 99, done.append)
    sim.run()
    assert done, "handler must eventually get a frame via forced shootdown"
    assert w.fe.stats.get("forced_shootdowns").value >= 1


def test_shared_page_updates_all_mappings(sim):
    w = World(sim)
    pfn = frame_of(w.page_tables[0].touch(7))
    share(w.page_tables[1], 8, pfn)
    assert w.tables.reverse_map(pfn) == [(0, 7), (1, 8)]
    w.fe.handle_tag_miss(0, 7, 0, lambda t: None)
    sim.run()
    assert w.cached(0, 7) and w.cached(1, 8)
    assert w.frame(0, 7) == w.frame(1, 8)


def warm(w, pages):
    touch_pages(w.page_tables, pages)
    w.fe.warm_fills(pages)


def test_warm_fill_zero_cost(sim):
    w = World(sim)
    warm(w, [(0, 3, True)])
    assert w.cached(0, 3)
    assert w.fe.cpds.dirty_in_cache[w.frame(0, 3)]
    assert sim.now == 0
    assert w.fe.stats.get("fills").value == 0  # not a timed fill


def test_warm_fill_evicts_when_needed(sim):
    w = World(sim, num_frames=4, threshold=2, batch=2)
    warm(w, [(0, v, False) for v in range(4)])
    # The third page finds the free count at the threshold: the tail's
    # two frames are evicted and the page takes the next frame.
    assert [w.cached(0, v) for v in range(4)] == [False, False, True, True]
    assert [w.frame(0, v) for v in range(4)] == [0, 1, 2, 3]
    fq = w.fe.free_queue
    assert (fq.num_free, fq.head, fq.tail) == (2, 0, 2)
