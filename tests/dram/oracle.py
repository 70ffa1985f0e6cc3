"""Reference model of DRAM burst service, for tests only.

``DRAMDevice.transfer`` serves every burst of the simulator in one loop
with the address decode, the bank state machine and the bus arbitration
written out inline.  This module keeps the same semantics as three
separate, plainly written steps -- :func:`decode`, :meth:`RefBank.access`
and :meth:`RefChannel.enqueue` -- so tests can check the fused loop
against them burst by burst.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional

DecodedAddress = namedtuple("DecodedAddress", "channel bank row")


def decode(cfg, addr: int) -> DecodedAddress:
    """Channels interleave per 64 B burst, banks per row within a channel."""
    burst = addr >> 6
    channel = burst % cfg.num_channels
    local = burst // cfg.num_channels
    row_global = local // (cfg.row_size_bytes >> 6)
    bank = row_global % cfg.banks_per_channel
    row = row_global // cfg.banks_per_channel
    return DecodedAddress(channel, bank, row)


class RefBank:
    """One bank's row buffer (open-page policy)."""

    def __init__(self):
        self.open_row: Optional[int] = None
        self.ready_at = 0
        self.activated_at = 0

    def access(self, row: int, now: int, timing) -> tuple:
        """Returns ``(data_ready_time, outcome)``.

        ``outcome`` is ``"hit"``, ``"closed"`` or ``"conflict"``;
        ``data_ready_time`` is when the burst may start on the data bus
        (bank-side constraint only).
        """
        start = max(now, self.ready_at)
        if self.open_row == row:
            outcome = "hit"
            column = start
        elif self.open_row is None:
            outcome = "closed"
            column = start + timing.trcd  # activate at `start`
            self.activated_at = start
        else:
            outcome = "conflict"
            # Respect tRAS before precharging the currently open row.
            precharge = max(start, self.activated_at + timing.tras)
            activate = precharge + timing.trp
            column = activate + timing.trcd
            self.activated_at = activate
        self.open_row = row
        # Back-to-back column commands to an open row pipeline at the
        # burst rate (tCCD ~= tburst); tCAS is pure latency.
        self.ready_at = column + timing.tburst
        return column + timing.tcas, outcome


class RefChannel:
    """One channel: banks, a shared data bus, and traffic accounting."""

    def __init__(self, timing, num_banks: int):
        self.timing = timing
        self.banks = [RefBank() for _ in range(num_banks)]
        self.bus_free_at = 0
        self.outcomes = {"hit": 0, "closed": 0, "conflict": 0}
        self.reads = 0
        self.writes = 0
        self.bytes_by_class: Dict[object, int] = {}
        self.latencies: List[int] = []

    def enqueue(self, bank: int, row: int, is_write: bool, traffic_class,
                now: int) -> int:
        """Serve one 64 B burst issued at ``now``; returns its end time."""
        data_ready, outcome = self.banks[bank].access(row, now, self.timing)
        self.outcomes[outcome] += 1
        end = max(data_ready, self.bus_free_at) + self.timing.tburst
        self.bus_free_at = end
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_by_class[traffic_class] = (
            self.bytes_by_class.get(traffic_class, 0) + 64
        )
        self.latencies.append(end - now)
        return end


class RefDevice:
    """A device of :class:`RefChannel`; one call per burst."""

    def __init__(self, cfg, timing):
        self.cfg = cfg
        self.channels = [
            RefChannel(timing, cfg.banks_per_channel)
            for _ in range(cfg.num_channels)
        ]

    def burst(self, addr: int, is_write: bool, traffic_class, now: int) -> int:
        d = decode(self.cfg, addr)
        return self.channels[d.channel].enqueue(
            d.bank, d.row, is_write, traffic_class, now
        )
