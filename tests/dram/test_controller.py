"""Channel controller: bus occupancy, queueing, accounting.

Driven through ``DRAMDevice.access`` on the single-channel DDR4 device,
where ``_addr(bank, row)`` names one bank's row directly.
"""

import pytest

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200
from repro.dram.device import DRAMDevice

CFG = DDR4_3200


def make(sim):
    return DRAMDevice(sim, "ddr", CFG, 3.6)


def _addr(bank: int, row: int) -> int:
    return (row * CFG.banks_per_channel + bank) * CFG.row_size_bytes


def test_single_burst_latency(sim):
    dev = make(sim)
    T = dev.timing
    end = dev.access(_addr(0, 0), False, TrafficClass.DEMAND)
    assert end == T.trcd + T.tcas + T.tburst


def test_callback_fires_at_completion(sim):
    dev = make(sim)
    fired = []
    end = dev.access(_addr(0, 0), False, TrafficClass.DEMAND,
                     callback=lambda: fired.append(sim.now))
    sim.run()
    assert fired == [end]


def test_bus_serializes_bursts(sim):
    dev = make(sim)
    # Different banks, same row number: bank-side overlaps, bus serializes.
    e1 = dev.access(_addr(0, 0), False, TrafficClass.DEMAND)
    e2 = dev.access(_addr(1, 0), False, TrafficClass.DEMAND)
    assert e2 >= e1 + dev.timing.tburst


def test_row_hit_accounting(sim):
    dev = make(sim)
    dev.access(_addr(0, 7), False, TrafficClass.DEMAND)
    dev.access(_addr(0, 7), False, TrafficClass.DEMAND)
    dev.access(_addr(0, 8), False, TrafficClass.DEMAND)
    ch = dev.channels[0]
    assert ch.stats.get("row_hits").value == 1
    assert ch.stats.get("row_closed").value == 1
    assert ch.stats.get("row_conflicts").value == 1
    assert ch.row_hit_rate == pytest.approx(1 / 3)


def test_read_write_counters(sim):
    dev = make(sim)
    dev.access(_addr(0, 0), False, TrafficClass.DEMAND)
    dev.access(_addr(0, 0), True, TrafficClass.FILL)
    ch = dev.channels[0]
    assert ch.stats.get("reads").value == 1
    assert ch.stats.get("writes").value == 1


def test_bytes_by_traffic_class(sim):
    dev = make(sim)
    dev.access(_addr(0, 0), False, TrafficClass.METADATA)
    dev.access(_addr(0, 0), False, TrafficClass.METADATA)
    dev.access(_addr(0, 0), True, TrafficClass.WRITEBACK)
    bw = dev.channels[0].stats.get("bytes")
    assert bw.bytes_by_class[TrafficClass.METADATA] == 128
    assert bw.bytes_by_class[TrafficClass.WRITEBACK] == 64


def test_saturation_grows_latency(sim):
    dev = make(sim)
    ends = [dev.access(_addr(0, 0), False, TrafficClass.DEMAND)
            for _ in range(100)]
    # All issued at t=0: the 100th burst waits ~100 bus slots.
    assert ends[-1] >= 100 * dev.timing.tburst


def test_latency_stat_tracks_queueing(sim):
    dev = make(sim)
    for _ in range(10):
        dev.access(_addr(0, 0), False, TrafficClass.DEMAND)
    lat = dev.channels[0].stats.get("burst_latency")
    assert lat.count == 10
    assert lat.max > lat.min
