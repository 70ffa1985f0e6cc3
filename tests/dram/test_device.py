"""Whole-device behaviour: multi-burst transfers, aggregate stats."""

import pytest

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200, HBM2, scaled_dram
from repro.dram.device import DRAMDevice


def make(sim, cfg=HBM2):
    return DRAMDevice(sim, "dev", cfg, 3.6)


def test_access_routes_to_decoded_channel(sim):
    dev = make(sim)
    dev.access(64, False, TrafficClass.DEMAND)  # burst 1 -> channel 1
    assert dev.channels[1].metrics()["reads"] == 1
    assert dev.channels[0].metrics()["reads"] == 0


def test_transfer_issues_one_burst_per_sub_block(sim):
    dev = make(sim)
    dev.transfer(0, range(64), False, TrafficClass.FILL)
    total = sum(ch.metrics()["reads"] for ch in dev.channels)
    assert total == 64


def test_transfer_reports_each_sub_block_end(sim):
    """Critical-data-first order: ``ends[s]`` belongs to sub-block ``s``,
    and the sub-block issued first is not the last to arrive."""
    dev = make(sim)
    order = [9] + [s for s in range(16) if s != 9]
    ends = dev.transfer(0, order, False, TrafficClass.FILL)
    assert len(ends) == 16 and all(e > 0 for e in ends)
    assert ends[9] == min(ends)
    assert ends[9] < max(ends)


def test_transfer_ends_fix_the_copy_completion(sim):
    """A caller schedules the copy's completion at the last end."""
    dev = make(sim)
    done = []
    ends = dev.transfer(0, range(8), True, TrafficClass.WRITEBACK)
    last = max(ends)
    sim.schedule_at(last, lambda: done.append(sim.now))
    sim.run()
    assert done == [last]
    assert dev.channels[0].bus_free_at <= last


def test_page_copy_parallelism_across_channels(sim):
    """A 4 KB page spread over 8 channels finishes ~8x faster than serial."""
    dev = make(sim)
    last = max(dev.transfer(0, range(64), False, TrafficClass.FILL))
    serial_estimate = 64 * dev.timing.tburst
    assert last < serial_estimate


def test_row_hit_rate_aggregates(sim):
    dev = make(sim, scaled_dram(DDR4_3200, 1 << 24))
    dev.transfer(0, range(64), False, TrafficClass.FILL)
    # Sequential page fill on one channel: mostly row hits.
    assert dev.row_hit_rate > 0.9


def test_bytes_by_class_and_total(sim):
    dev = make(sim)
    dev.access(0, False, TrafficClass.DEMAND)
    dev.access(64, True, TrafficClass.FILL)
    by = dev.bytes_by_class()
    assert by[TrafficClass.DEMAND] == 64
    assert by[TrafficClass.FILL] == 64
    assert dev.total_bytes() == 128


def test_bandwidth_gbps(sim):
    dev = make(sim)
    dev.access(0, False, TrafficClass.DEMAND)
    gbps = dev.bandwidth_gbps(elapsed_cycles=3_600_000_000, cycles_per_second=3.6e9)
    assert gbps == pytest.approx(64 / 1e9)


def test_accesses_counter(sim):
    dev = make(sim)
    dev.transfer(0, range(4), False, TrafficClass.DEMAND)
    assert dev.metrics()["accesses"] == 4
