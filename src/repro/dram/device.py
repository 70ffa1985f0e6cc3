"""A whole DRAM device: channels + address map + aggregate statistics."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.common.types import TrafficClass
from repro.config.dram import DRAMTimingConfig
from repro.dram.address_map import AddressMap
from repro.dram.controller import ChannelController
from repro.dram.timing import ResolvedTiming
from repro.engine.simulator import Component, Simulator

_ONE_BURST = (0,)


class DRAMDevice(Component):
    """Multi-channel DRAM device (the HBM stack or the DDR4 DIMMs).

    :meth:`transfer` is the device's only service routine: it issues a
    run of 64 B bursts (a 4 KB page copy, a 1 KB TiD line) in one loop and
    returns every burst's completion time, which is what lets the NOMAD
    back-end maintain its B vector and service critical-data-first
    requests from the page copy buffer.  :meth:`access` is its one-burst
    case plus an optional completion callback.
    """

    # Telemetry tracer hook (repro.telemetry); instance attr when armed.
    _tel = None

    def __init__(self, sim: Simulator, name: str, cfg: DRAMTimingConfig, cpu_ghz: float):
        super().__init__(sim, name)
        self.cfg = cfg
        self.timing = timing = ResolvedTiming.from_config(cfg, cpu_ghz)
        amap = AddressMap(cfg)
        self.channels: List[ChannelController] = [
            ChannelController(sim, f"{name}.ch{i}", cfg.banks_per_channel)
            for i in range(cfg.num_channels)
        ]
        # Decode geometry and timings, unpacked in one step per transfer.
        self._params = (
            amap.num_channels, amap.banks_per_channel, amap.bursts_per_row,
            timing.trcd, timing.trp, timing.tcas, timing.tburst, timing.tras,
        )
        self._schedule_at = sim.schedule_at
        self.access_count = 0

    def metrics(self) -> dict:
        return {"accesses": self.access_count}

    def guard_state(self) -> dict:
        return {
            "accesses": self.access_count,
            "reads": sum(ch.reads for ch in self.channels),
            "writes": sum(ch.writes for ch in self.channels),
            "max_bus_free_at": max(ch.bus_free_at for ch in self.channels),
        }

    def transfer(
        self,
        base: int,
        subs: Sequence[int],
        is_write: bool,
        traffic_class: TrafficClass,
    ) -> List[int]:
        """Issue one 64 B burst at ``base + 64 * s`` for each ``s`` of
        ``subs``, in that order; returns ``ends`` with ``ends[s]`` the
        completion time of sub-block ``s``.

        ``subs`` is an ordering of ``range(len(subs))`` (critical data
        first, or sequential).  Service is computed at issue: first come,
        first served per channel, with open-page row buffers.  Every
        simulated byte moves through this loop, so the address decode,
        the bank state machine and the bus arbitration are written out
        inline, and the statistics accumulate in plain int attributes of
        each :class:`ChannelController`.
        """
        now = self.sim.now
        (num_channels, banks_per_channel, bursts_per_row,
         trcd, trp, tcas, tburst, tras) = self._params
        channels = self.channels
        tel = self._tel
        first = base >> 6
        n = len(subs)
        ends = [0] * n
        self.access_count += n
        for sub in subs:
            # Decode: channels interleave per burst, banks per row.
            burst = first + sub
            channel = burst % num_channels
            row_global = burst // num_channels // bursts_per_row
            ch = channels[channel]
            bank = ch.banks[row_global % banks_per_channel]
            row = row_global // banks_per_channel

            # Row-buffer state machine (open-page policy).
            ready_at = bank.ready_at
            svc = now if now > ready_at else ready_at
            open_row = bank.open_row
            if open_row == row:
                ch.row_hits += 1
                column = svc
            elif open_row is None:
                ch.row_closed += 1
                column = svc + trcd  # activate at `svc`
                bank.activated_at = svc
            else:
                ch.row_conflicts += 1
                # Respect tRAS before precharging the currently open row.
                precharge = bank.activated_at + tras
                if svc > precharge:
                    precharge = svc
                activate = precharge + trp
                column = activate + trcd
                bank.activated_at = activate
            bank.open_row = row
            # Back-to-back column commands to an open row pipeline at the
            # burst rate (tCCD ~= tburst); tCAS is pure latency.
            bank.ready_at = column + tburst
            data_ready = column + tcas

            # The channel's shared data bus.
            bus_free = ch.bus_free_at
            end = (data_ready if data_ready > bus_free else bus_free) + tburst
            ch.bus_free_at = end
            ends[sub] = end

            if tel is not None:
                tel.dram_span(
                    self.name, channel, row_global % banks_per_channel,
                    svc, end, is_write, traffic_class,
                )
            if is_write:
                ch.writes += 1
            else:
                ch.reads += 1
            by_class = ch.bytes_by_class
            by_class[traffic_class] = by_class.get(traffic_class, 0) + 64
            latency = end - now
            ch._lat_count += 1
            ch._lat_total += latency
            lat_max = ch._lat_max
            if lat_max is None or latency > lat_max:
                ch._lat_max = latency
        return ends

    def access(
        self,
        addr: int,
        is_write: bool,
        traffic_class: TrafficClass,
        callback: Optional[Callable[[], None]] = None,
    ) -> int:
        """One 64 B burst at ``addr``; returns its completion time.

        ``callback`` (if given) fires at completion.
        """
        end = self.transfer(addr, _ONE_BURST, is_write, traffic_class)[0]
        if callback is not None:
            self._schedule_at(end, callback)
        return end

    # -- aggregate statistics ------------------------------------------

    @property
    def row_hit_rate(self) -> float:
        hits = sum(ch.row_hits for ch in self.channels)
        total = hits
        total += sum(ch.row_closed for ch in self.channels)
        total += sum(ch.row_conflicts for ch in self.channels)
        return hits / total if total else 0.0

    def bytes_by_class(self) -> dict:
        out: dict = {}
        for ch in self.channels:
            for tc, b in ch.bytes_by_class.items():
                out[tc] = out.get(tc, 0) + b
        return out

    def total_bytes(self) -> int:
        return sum(self.bytes_by_class().values())

    def bandwidth_gbps(self, elapsed_cycles: int, cycles_per_second: float) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return self.total_bytes() / (elapsed_cycles / cycles_per_second) / 1e9
