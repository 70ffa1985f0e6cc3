"""Per-bank row-buffer state."""

from __future__ import annotations

from typing import Optional


class Bank:
    """One DRAM bank: its open row, the cycle it can take the next column
    command, and when its open row was activated (for tRAS).

    :meth:`DRAMDevice.transfer <repro.dram.device.DRAMDevice.transfer>`
    runs the state machine: a reference to the open row is a hit, one to
    a bank with no open row pays tRCD, and one to another row waits for
    tRAS, then pays tRP + tRCD; the row stays open afterwards (open-page
    policy).
    """

    __slots__ = ("open_row", "ready_at", "activated_at")

    def __init__(self):
        self.open_row: Optional[int] = None
        self.ready_at = 0
        self.activated_at = 0
