"""Bank state machine: row-buffer outcomes and timing.

Driven through ``DRAMDevice.access`` on the single-channel DDR4 device,
where ``_addr(bank, row)`` names one bank's row directly.
"""

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200
from repro.dram.device import DRAMDevice

CFG = DDR4_3200


def _dev(sim):
    return DRAMDevice(sim, "ddr", CFG, 3.6)


def _addr(bank: int, row: int, column: int = 0) -> int:
    return (row * CFG.banks_per_channel + bank) * CFG.row_size_bytes + column * 64


def _read_at(sim, dev, now, bank, row, column=0):
    sim.now = now
    return dev.access(_addr(bank, row, column), False, TrafficClass.DEMAND)


def _outcomes(dev):
    ch = dev.channels[0]
    return ch.row_hits, ch.row_closed, ch.row_conflicts


def test_first_access_is_closed(sim):
    dev = _dev(sim)
    T = dev.timing
    end = _read_at(sim, dev, 0, bank=0, row=5)
    assert _outcomes(dev) == (0, 1, 0)
    assert end == T.trcd + T.tcas + T.tburst


def test_same_row_hits(sim):
    dev = _dev(sim)
    T = dev.timing
    _read_at(sim, dev, 0, bank=0, row=5)
    end = _read_at(sim, dev, 1000, bank=0, row=5, column=3)
    assert _outcomes(dev) == (1, 1, 0)
    assert end == 1000 + T.tcas + T.tburst


def test_different_row_conflicts(sim):
    dev = _dev(sim)
    _read_at(sim, dev, 0, bank=0, row=5)
    _read_at(sim, dev, 10_000, bank=0, row=6)
    assert _outcomes(dev) == (0, 1, 1)


def test_conflict_pays_precharge_and_activate(sim):
    dev = _dev(sim)
    T = dev.timing
    _read_at(sim, dev, 0, bank=0, row=5)
    end = _read_at(sim, dev, 10_000, bank=0, row=6)
    assert end == 10_000 + T.trp + T.trcd + T.tcas + T.tburst


def test_conflict_respects_tras(sim):
    dev = _dev(sim)
    T = dev.timing
    _read_at(sim, dev, 0, bank=0, row=5)  # activated at 0
    # Immediately conflicting: precharge must wait for tRAS.
    end = _read_at(sim, dev, T.tburst, bank=0, row=6)
    assert _outcomes(dev) == (0, 1, 1)
    assert end >= T.tras + T.trp + T.trcd + T.tcas + T.tburst


def test_open_row_pipelines_at_burst_rate(sim):
    """Streaming an open row must go at tCCD (~tburst), not tCAS."""
    dev = _dev(sim)
    ends = dev.transfer(_addr(0, 1), range(3), False, TrafficClass.FILL)
    assert _outcomes(dev) == (2, 1, 0)
    assert ends[2] - ends[1] == dev.timing.tburst


def test_row_stays_open(sim):
    dev = _dev(sim)
    bank = dev.channels[0].banks[0]
    _read_at(sim, dev, 0, bank=0, row=9)
    assert bank.open_row == 9
    _read_at(sim, dev, 10_000, bank=0, row=4)
    assert bank.open_row == 4
