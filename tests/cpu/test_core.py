"""The ROB-occupancy core model against a scriptable fake memory system."""

import pytest

from repro.config.system import CoreConfig
from repro.cpu.core import Core
from repro.engine.simulator import Simulator


class FakeScheme:
    """Memory system with programmable hit latency and per-page walks."""

    def __init__(self, sim, hit_latency=10, miss_latency=None, miss_addrs=(),
                 os_stall=0):
        self.sim = sim
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency or 200
        self.miss_addrs = set(miss_addrs)
        self.os_stall = os_stall
        self.walk_latency = 100
        self.tlb = set()
        self.issued = []
        self.walked = []
        # The core binds tlbs[core_id].lookup, page_tables[core_id].translate
        # and hierarchy.access; this one-core double plays all three
        # through lookup(), translate() and access() below.
        self.tlbs = [self]
        self.page_tables = [self]
        self.hierarchy = self

    def lookup(self, vpn):
        if vpn in self.tlb:
            return 0
        return None

    def peek_translate(self, core_id, vpn):
        self.walked.append(vpn)
        needs_os = self.os_stall > 0 and vpn not in self.tlb
        if not needs_os:
            self.tlb.add(vpn)
        return self.walk_latency, needs_os

    def translate_miss(self, core_id, vpn, now, done, addr=0):
        self.tlb.add(vpn)
        ready = now + self.walk_latency + self.os_stall
        self.sim.schedule_at(ready, lambda: done(ready))

    def translate(self, vpn, addr):
        return addr

    def access(self, access, now, on_complete):
        self.issued.append((access.addr, now))
        if access.addr in self.miss_addrs:
            finish = now + self.miss_latency
            self.sim.schedule_at(finish, lambda: on_complete(finish))
            return None
        return now + self.hit_latency


def run_core(trace, scheme=None, **core_kw):
    sim = Simulator()
    scheme = scheme or FakeScheme(sim)
    scheme.sim = sim
    cfg = CoreConfig(width=4, rob_size=32, store_buffer=4, **core_kw)
    core = Core(sim, 0, cfg, scheme, iter(trace))
    core.start()
    sim.run()
    assert core.done
    return core, scheme


def T(gap, addr, w=False, d=False):
    return (gap, addr, w, d)


def test_pure_compute_ipc_approaches_width():
    # One op with a huge gap: IPC ~ width (minus the tail where the
    # final load's walk+hit latency drains with an empty pipeline).
    core, scheme = run_core([T(40_000, 0)])
    assert core.ipc == pytest.approx(4.0, rel=0.02)


def test_instruction_count():
    core, _ = run_core([T(3, 0), T(5, 64)])
    assert core.inst_count == 3 + 1 + 5 + 1


def test_tlb_miss_counted_once_per_page():
    core, scheme = run_core([T(0, 0), T(0, 64), T(0, 4096)])
    assert core.tlb_misses == 2
    assert scheme.walked == [0, 1]


def test_independent_misses_overlap():
    """Two misses within the ROB window overlap (MLP)."""
    miss = {0, 64}
    core, _ = run_core([T(0, 0), T(0, 64), T(2000, 128)])
    # finish approx: miss latency 200 paid once, not twice.
    assert core.finish_time < 200 * 2 + 600


def test_dependent_load_serializes():
    miss = {0}
    scheme_factory = lambda sim: FakeScheme(sim, miss_addrs=miss)
    sim = Simulator()
    s = FakeScheme(sim, miss_addrs={0, 4096})
    cfg = CoreConfig(width=4, rob_size=32, store_buffer=4)
    trace = [T(0, 0, d=True), T(0, 4096, d=True)]
    core = Core(sim, 0, cfg, s, iter(trace))
    core.start()
    sim.run()
    # Two serialized 200-cycle misses (plus walks).
    assert core.finish_time >= 400
    assert core.stalls.dep > 0


def test_rob_window_limits_runahead():
    """A miss stalls dispatch once it is rob_size instructions old."""
    sim = Simulator()
    s = FakeScheme(sim, miss_addrs={0})
    cfg = CoreConfig(width=1, rob_size=8, store_buffer=4)
    trace = [T(0, 0)] + [T(0, 64 * (i + 1)) for i in range(20)]
    core = Core(sim, 0, cfg, s, iter(trace))
    core.start()
    sim.run()
    assert core.stalls.window > 0


def test_os_stall_accounted():
    sim = Simulator()
    s = FakeScheme(sim, os_stall=500)
    cfg = CoreConfig(width=4, rob_size=32, store_buffer=4)
    core = Core(sim, 0, cfg, s, iter([T(0, 0)]))
    core.start()
    sim.run()
    assert core.os_stall_cycles == 500
    assert core.stalls.tag_misses == 1
    assert core.stalls.tlb == 100


def test_store_buffer_backpressure():
    sim = Simulator()
    miss = {i * 64 for i in range(64)}
    s = FakeScheme(sim, miss_addrs=miss, miss_latency=1000)
    cfg = CoreConfig(width=4, rob_size=256, store_buffer=4)
    trace = [T(0, i * 64, w=True) for i in range(16)]
    core = Core(sim, 0, cfg, s, iter(trace))
    core.start()
    sim.run()
    assert core.stalls.store > 0
    assert core.outstanding_stores == 0  # all drained by completion events


def test_stores_do_not_block_window():
    sim = Simulator()
    s = FakeScheme(sim, miss_addrs={0}, miss_latency=5000)
    cfg = CoreConfig(width=4, rob_size=64, store_buffer=8)
    trace = [T(0, 0, w=True), T(1000, 64)]
    core = Core(sim, 0, cfg, s, iter(trace))
    core.start()
    sim.run()
    # The slow store does not hold the ROB window; only drain matters.
    assert core.stalls.window == 0


def test_stall_breakdown_fractions():
    sim = Simulator()
    s = FakeScheme(sim, os_stall=300)
    cfg = CoreConfig(width=4, rob_size=32, store_buffer=4)
    core = Core(sim, 0, cfg, s, iter([T(0, 0)]))
    core.start()
    sim.run()
    b = core.stall_breakdown()
    assert set(b) == {"os", "window", "store", "dep", "tlb"}
    assert 0 <= b["os"] <= 1


def test_finish_waits_for_outstanding_loads():
    sim = Simulator()
    s = FakeScheme(sim, miss_addrs={0}, miss_latency=2000)
    cfg = CoreConfig(width=4, rob_size=64, store_buffer=4)
    core = Core(sim, 0, cfg, s, iter([T(0, 0)]))
    core.start()
    sim.run()
    assert core.finish_time >= 2000


def test_empty_trace_finishes():
    core, _ = run_core([])
    assert core.inst_count == 0
    assert core.done


def test_ipc_zero_before_finish():
    sim = Simulator()
    s = FakeScheme(sim)
    core = Core(sim, 0, CoreConfig(), s, iter([T(0, 0)]))
    assert core.ipc == 0.0
