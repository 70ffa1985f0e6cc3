"""Whole-system configuration (paper Table II) and scaled presets.

``paper_system()`` encodes the full HPCA'23 configuration: an 8-core CMP
with private L1/L2, a shared L3, two-level TLBs, 4 GB of on-package HBM2
used as the DRAM cache, and off-package DDR4.

``scaled_system()`` is the default for experiments in this repository:
the same machine shrunk so a pure-Python simulation finishes in seconds.
Cache and DRAM-cache capacities shrink together with trace footprints
(see ``repro.workloads.presets``), keeping miss rates and bandwidth
pressure in the paper's regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.inline_state import InlineState
from repro.config.dram import DDR4_3200, DRAMTimingConfig, HBM2, scaled_dram


@dataclass(frozen=True)
class CoreConfig(InlineState):
    """Out-of-order core model parameters."""

    freq_ghz: float = 3.6
    width: int = 4  # dispatch/commit width (instructions per cycle)
    rob_size: int = 192
    compute_latency: int = 1  # cycles per non-memory instruction at width 1
    # Outstanding missed stores before dispatch stalls (write buffer).
    store_buffer: int = 32


@dataclass(frozen=True)
class CacheConfig(InlineState):
    """One SRAM cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int  # hit latency in CPU cycles
    mshrs: int
    line_size: int = 64

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.ways)


@dataclass(frozen=True)
class TLBConfig(InlineState):
    """Two-level data TLB."""

    l1_entries: int = 64
    l2_entries: int = 1536
    l2_latency: int = 8
    walk_latency: int = 120  # page-table walk (cycles), PTEs assumed cached


@dataclass(frozen=True)
class SystemConfig(InlineState):
    """The complete simulated machine."""

    num_cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1", 32 * 1024, 8, 4, 16)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("l2", 256 * 1024, 8, 12, 16)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("l3", 16 * 1024 * 1024, 16, 38, 128)
    )
    tlb: TLBConfig = field(default_factory=TLBConfig)
    hbm: DRAMTimingConfig = HBM2
    ddr: DRAMTimingConfig = DDR4_3200
    # DRAM-cache capacity in 4 KB pages (defaults to all of HBM).
    dc_pages: int = (4 * 1024**3) // 4096

    @property
    def cycles_per_second(self) -> float:
        return self.core.freq_ghz * 1e9

    def with_cores(self, num_cores: int) -> "SystemConfig":
        return replace(self, num_cores=num_cores)


def paper_system() -> SystemConfig:
    """The full configuration from Table II of the paper."""
    return SystemConfig()


def scaled_system(num_cores: int = 4, dc_megabytes: int = 64) -> SystemConfig:
    """A laptop-scale configuration preserving the paper's ratios.

    The DRAM cache shrinks to ``dc_megabytes``; the L3 shrinks by the same
    factor, to no less than 256 KB, so the LLC-miss-to-DC-capacity ratio
    matches the paper.  For the default that is 16 MB * 64 MB / 4 GB =
    256 KB, the floor: at 4 cores a quarter of the four 256 KB L2s the
    L3 must include, so it never hits (EXPERIMENTS.md, modelling delta
    6).  DRAM timings are untouched -- bandwidth and latency are the
    physics being studied.
    """
    dc_bytes = dc_megabytes * 1024 * 1024
    shrink = (4 * 1024**3) // dc_bytes
    l3_bytes = max(256 * 1024, (16 * 1024 * 1024) // shrink)
    return SystemConfig(
        num_cores=num_cores,
        l3=CacheConfig("l3", l3_bytes, 16, 38, 128),
        # TLB reach shrinks with the DC so shootdown-avoidance stays in
        # the paper's regime (TLB coverage << DC capacity).
        tlb=TLBConfig(l1_entries=32, l2_entries=256),
        hbm=scaled_dram(HBM2, dc_bytes),
        ddr=scaled_dram(DDR4_3200, 16 * dc_bytes),
        dc_pages=dc_bytes // 4096,
    )
