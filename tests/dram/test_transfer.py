"""``DRAMDevice.transfer`` and ``access`` against the reference model.

The device fuses the address decode, the bank state machine and the bus
arbitration into one loop; ``tests/dram/oracle.py`` keeps them as
separate steps.  Interleaved page copies, line copies and single bursts,
in any sub-block order and with mixed traffic classes, must give the
same end times and the same counters on both.
"""

from hypothesis import given, settings, strategies as st

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200, HBM2
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Simulator
from tests.dram.oracle import RefDevice

# Pages from a 16 MB window, or from pages 256 KB apart: on both devices
# the latter share their banks and differ in row, so row conflicts,
# some soon enough after an activation to wait for tRAS, are common.
_PAGES = st.one_of(
    st.integers(0, (16 << 20) // 4096 - 1),
    st.builds(lambda k, j: k * 64 + j, st.integers(0, 7), st.integers(0, 3)),
)
_GAPS = st.one_of(st.just(0), st.integers(0, 200), st.integers(0, 3000))


@st.composite
def _op(draw):
    gap = draw(_GAPS)
    is_write = draw(st.booleans())
    tc = draw(st.sampled_from(list(TrafficClass)))
    if draw(st.booleans()):
        addr = draw(_PAGES) * 4096 + draw(st.integers(0, 4095))
        return ("access", gap, addr, is_write, tc)
    n = draw(st.sampled_from([1, 3, 16, 64]))
    subs = draw(st.permutations(range(n)))
    base = draw(_PAGES) * 4096 + draw(st.integers(0, 4095))
    return ("transfer", gap, base, subs, is_write, tc)


def _check_counters(dev, ref):
    for ch, rch in zip(dev.channels, ref.channels):
        stats = ch.stats
        assert stats.get("row_hits").value == rch.outcomes["hit"]
        assert stats.get("row_closed").value == rch.outcomes["closed"]
        assert stats.get("row_conflicts").value == rch.outcomes["conflict"]
        assert stats.get("reads").value == rch.reads
        assert stats.get("writes").value == rch.writes
        assert stats.get("bytes").bytes_by_class == rch.bytes_by_class
        lat = stats.get("burst_latency")
        assert lat.count == len(rch.latencies)
        assert lat.total == sum(rch.latencies)
        assert lat.min == (min(rch.latencies) if rch.latencies else None)
        assert lat.max == (max(rch.latencies) if rch.latencies else None)
        assert ch.bus_free_at == rch.bus_free_at
        for bank, rbank in zip(ch.banks, rch.banks):
            assert (bank.open_row, bank.ready_at, bank.activated_at) == \
                (rbank.open_row, rbank.ready_at, rbank.activated_at)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([HBM2, DDR4_3200]),
       st.lists(_op(), min_size=1, max_size=25))
def test_transfer_and_access_match_the_reference(cfg, ops):
    sim = Simulator()
    dev = DRAMDevice(sim, "dev", cfg, 3.6)
    ref = RefDevice(cfg, dev.timing)
    bursts = 0
    for op in ops:
        sim.now += op[1]
        if op[0] == "access":
            _, _, addr, is_write, tc = op
            assert dev.access(addr, is_write, tc) == \
                ref.burst(addr, is_write, tc, sim.now)
            bursts += 1
        else:
            _, _, base, subs, is_write, tc = op
            ends = dev.transfer(base, subs, is_write, tc)
            expected = [0] * len(subs)
            for s in subs:
                expected[s] = ref.burst(base + s * 64, is_write, tc, sim.now)
            assert ends == expected
            bursts += len(subs)
    _check_counters(dev, ref)
    assert dev.stats.get("accesses").value == bursts


def test_transfer_schedules_no_events(sim):
    dev = DRAMDevice(sim, "dev", HBM2, 3.6)
    dev.transfer(0, range(64), False, TrafficClass.FILL)
    assert sim.pending_events == 0
