"""Datasheet nanosecond timings resolved into CPU-cycle integers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.inline_state import InlineState
from repro.config.dram import DRAMTimingConfig


@dataclass(frozen=True)
class ResolvedTiming(InlineState):
    """All DRAM timings in CPU cycles for a given core frequency.

    The per-outcome access latencies (row hit / closed / conflict) are
    precomputed once at construction so the per-burst hot path reads a
    stored int instead of re-summing components through a property call.
    """

    trcd: int
    trp: int
    tcas: int
    tburst: int
    tras: int
    row_hit_latency: int = field(init=False)
    row_closed_latency: int = field(init=False)
    row_conflict_latency: int = field(init=False)

    def __post_init__(self):
        # Column command to end of data, per row-buffer outcome.
        object.__setattr__(self, "row_hit_latency", self.tcas + self.tburst)
        object.__setattr__(
            self, "row_closed_latency", self.trcd + self.tcas + self.tburst
        )
        object.__setattr__(
            self,
            "row_conflict_latency",
            self.trp + self.trcd + self.tcas + self.tburst,
        )

    @classmethod
    def from_config(cls, cfg: DRAMTimingConfig, cpu_ghz: float) -> "ResolvedTiming":
        return cls(
            trcd=cfg.cycles(cfg.trcd_ns, cpu_ghz),
            trp=cfg.cycles(cfg.trp_ns, cpu_ghz),
            tcas=cfg.cycles(cfg.tcas_ns, cpu_ghz),
            tburst=cfg.cycles(cfg.burst_ns, cpu_ghz),
            tras=cfg.cycles(cfg.tras_ns, cpu_ghz),
        )
