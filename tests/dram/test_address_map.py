"""Address decomposition: channel/bank/row interleaving.

The decode lives inside ``DRAMDevice.transfer``; these tests watch where
bursts land on a fresh device, and check the device against the plain
reference decode in ``tests/dram/oracle.py``.
"""

import pytest

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200, HBM2, DRAMTimingConfig
from repro.dram.address_map import AddressMap
from repro.dram.device import DRAMDevice
from repro.engine.simulator import Simulator
from tests.dram.oracle import decode


def _dev(sim, cfg):
    return DRAMDevice(sim, "dev", cfg, 3.6)


def _read(dev, addr):
    return dev.access(addr, False, TrafficClass.DEMAND)


def test_channels_interleave_at_burst(sim):
    dev = _dev(sim, HBM2)
    for addr in (0, 64, 64 * HBM2.num_channels):
        _read(dev, addr)
    reads = [ch.reads for ch in dev.channels]
    assert reads[0] == 2 and reads[1] == 1
    assert sum(reads) == 3


def test_page_spreads_over_all_channels(sim):
    dev = _dev(sim, HBM2)
    dev.transfer(0, range(64), False, TrafficClass.FILL)
    assert [ch.reads for ch in dev.channels] == \
        [64 // HBM2.num_channels] * HBM2.num_channels


def test_same_row_for_consecutive_bursts_on_channel(sim):
    dev = _dev(sim, DDR4_3200)
    _read(dev, 0)
    _read(dev, 64 * DDR4_3200.num_channels)  # next burst, same channel
    assert dev.channels[0].row_hits == 1


def test_rows_advance_through_banks(sim):
    dev = _dev(sim, DDR4_3200)
    row_bytes = DDR4_3200.row_size_bytes * DDR4_3200.num_channels
    _read(dev, 0)
    _read(dev, row_bytes)
    banks = dev.channels[0].banks
    assert banks[0].open_row == 0 and banks[1].open_row == 0
    assert dev.channels[0].row_closed == 2


def test_device_routes_bursts_like_the_reference_decode():
    for cfg in (HBM2, DDR4_3200):
        for addr in (0, 64, 4096, 123456, 7 << 20):
            dev = _dev(Simulator(), cfg)
            _read(dev, addr)
            d = decode(cfg, addr)
            assert [ch.reads for ch in dev.channels] == \
                [int(i == d.channel) for i in range(cfg.num_channels)]
            assert [b.open_row for b in dev.channels[d.channel].banks] == \
                [d.row if i == d.bank else None
                 for i in range(cfg.banks_per_channel)]


def test_row_smaller_than_burst_rejected():
    bad = DRAMTimingConfig("bad", 1 << 20, 1, 1, 32, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        AddressMap(bad)
