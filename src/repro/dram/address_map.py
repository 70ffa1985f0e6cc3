"""Physical address to (channel, bank, row) geometry.

Channels interleave at the 64-byte burst granularity (so a 4 KB page fill
spreads across every channel of the device), banks interleave at the row
granularity within a channel.  This is the standard high-parallelism
mapping and is what makes NOMAD's FIFO cache-frame allocation spread page
copies uniformly over distributed back-ends (Section III-F).  The decode
itself is written out in :meth:`DRAMDevice.transfer
<repro.dram.device.DRAMDevice.transfer>`, the one loop every burst goes
through: burst ``b = addr >> 6`` maps to channel ``b % num_channels``;
the channel-local row ``(b // num_channels) // bursts_per_row`` maps to
bank ``row % banks_per_channel`` and bank row
``row // banks_per_channel``.
"""

from __future__ import annotations

from repro.config.dram import DRAMTimingConfig

_BURST_SHIFT = 6  # 64-byte bursts


class AddressMap:
    """The decode geometry of one DRAM device."""

    def __init__(self, cfg: DRAMTimingConfig):
        self.cfg = cfg
        self.num_channels = cfg.num_channels
        self.banks_per_channel = cfg.banks_per_channel
        self.bursts_per_row = cfg.row_size_bytes >> _BURST_SHIFT
        if self.bursts_per_row <= 0:
            raise ValueError(f"row size {cfg.row_size_bytes} smaller than a burst")
