"""Writeback-type PCSHRs and probe interactions."""

from repro.common.types import TrafficClass
from repro.config.dram import DDR4_3200, HBM2, scaled_dram
from repro.config.schemes import NomadConfig
from repro.core.backend import Backend
from repro.core.pcshr import CommandType
from repro.dram.device import DRAMDevice


def make(sim, **kw):
    hbm = DRAMDevice(sim, "hbm", scaled_dram(HBM2, 1 << 26), 3.6)
    ddr = DRAMDevice(sim, "ddr", scaled_dram(DDR4_3200, 1 << 28), 3.6)
    return Backend(sim, NomadConfig(**kw), hbm, ddr), hbm, ddr


def test_writeback_pcshr_probe_matches(sim):
    be, _, _ = make(sim, num_pcshrs=4)
    be.writeback(5, 10, on_offloaded=lambda: None)
    p = be.probe(5)
    assert p is not None
    assert p.cmd_type == CommandType.WRITEBACK
    sim.run()
    assert be.probe(5) is None


def test_writeback_reads_hbm_sequentially(sim):
    be, hbm, ddr = make(sim, num_pcshrs=2)
    be.writeback(0, 1, on_offloaded=lambda: None)
    p = be.probe(0)
    # No priority for writebacks: arrivals ordered sequentially.
    assert p.arrival_times[0] == min(p.arrival_times)
    sim.run()


def test_write_merge_into_writeback_buffer(sim):
    """A racing CPU write merges into the outgoing copy."""
    be, _, _ = make(sim, num_pcshrs=2)
    be.writeback(0, 1, on_offloaded=lambda: None)
    p = be.probe(0)
    t = be.write_data_miss(p, 7)
    assert t >= sim.now
    assert p.cpu_written.test(7)
    sim.run()


def test_pcshr_sub_entry_wakeup_via_read(sim):
    be, _, _ = make(sim, num_pcshrs=2)
    be.fill(0, 1, 0, lambda: None, lambda t: None)
    p = be.probe(0)
    served = []
    for sub in (10, 20, 30):
        be.read_data_miss(p, sub, served.append)
    sim.run()
    assert len(served) == 3
    assert served == sorted(served)  # sequential fetch order


def test_backend_full_lifecycle_counts(sim):
    be, hbm, ddr = make(sim, num_pcshrs=2)
    for cfn in range(6):
        if cfn % 2:
            be.writeback(cfn, 100 + cfn, on_offloaded=lambda: None)
        else:
            be.fill(cfn, 100 + cfn, 0, lambda: None, lambda t: None)
    sim.run()
    assert be.metrics()["fill_commands"] == 3
    assert be.metrics()["writeback_commands"] == 3
    assert ddr.bytes_by_class()[TrafficClass.FILL] == 3 * 4096
    assert ddr.bytes_by_class()[TrafficClass.WRITEBACK] == 3 * 4096
    assert be.outstanding_copies == 0
