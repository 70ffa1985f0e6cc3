"""DRAM device timing configurations.

Timings are specified in nanoseconds (as datasheets give them) and
converted to CPU cycles at system-build time.  Two presets mirror the
paper's heterogeneous memory system (Table II): on-package HBM2 and
off-package DDR4-3200.

The bandwidth-defining parameter is ``burst_ns``: the data-bus occupancy
of one 64-byte burst on one channel.  DDR4-3200 on a 64-bit channel moves
64 B in 2.5 ns (25.6 GB/s per channel); an HBM2 pseudo-channel pair on a
128-bit bus moves 64 B in 2.0 ns, and eight such channels give the
on-package device roughly an order of magnitude more bandwidth than the
single off-package channel -- the regime Table I's RMHB classes assume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.inline_state import InlineState


@dataclass(frozen=True)
class DRAMTimingConfig(InlineState):
    """Timing and geometry of one DRAM device (all channels identical)."""

    name: str
    capacity_bytes: int
    num_channels: int
    banks_per_channel: int
    row_size_bytes: int
    trcd_ns: float  # activate -> column command
    trp_ns: float  # precharge
    tcas_ns: float  # column command -> first data
    burst_ns: float  # data-bus occupancy of one 64 B burst
    tras_ns: float  # activate -> precharge minimum

    def cycles(self, ns: float, cpu_ghz: float) -> int:
        """Convert a nanosecond figure to (rounded-up) CPU cycles."""
        cycles = ns * cpu_ghz
        return max(1, int(cycles + 0.999999))

    def peak_gbps(self) -> float:
        """Peak data bandwidth of the whole device in GB/s."""
        per_channel = 64 / self.burst_ns  # bytes per ns
        return per_channel * self.num_channels  # == GB/s

    def rows_per_bank(self) -> int:
        per_bank = self.capacity_bytes // (self.num_channels * self.banks_per_channel)
        return per_bank // self.row_size_bytes


HBM2 = DRAMTimingConfig(
    name="HBM2",
    capacity_bytes=4 * 1024**3,
    num_channels=8,
    banks_per_channel=16,
    row_size_bytes=2048,
    trcd_ns=14.0,
    trp_ns=14.0,
    tcas_ns=14.0,
    burst_ns=2.0,
    tras_ns=33.0,
)

DDR4_3200 = DRAMTimingConfig(
    name="DDR4-3200",
    capacity_bytes=16 * 1024**3,
    num_channels=1,
    banks_per_channel=16,
    row_size_bytes=8192,
    trcd_ns=13.75,
    trp_ns=13.75,
    tcas_ns=13.75,
    burst_ns=2.5,
    tras_ns=32.0,
)


def scaled_dram(base: DRAMTimingConfig, capacity_bytes: int) -> DRAMTimingConfig:
    """Same timings, smaller capacity (for laptop-scale experiments)."""
    return DRAMTimingConfig(
        name=f"{base.name}-scaled",
        capacity_bytes=capacity_bytes,
        num_channels=base.num_channels,
        banks_per_channel=base.banks_per_channel,
        row_size_bytes=base.row_size_bytes,
        trcd_ns=base.trcd_ns,
        trp_ns=base.trp_ns,
        tcas_ns=base.tcas_ns,
        burst_ns=base.burst_ns,
        tras_ns=base.tras_ns,
    )
