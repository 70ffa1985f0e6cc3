"""DRAM device models: banks, row buffers, channels, traffic accounting.

The model is a first-order bank/bus occupancy simulator in the spirit of
DRAMsim3's role in the paper: it reproduces row-buffer hit/miss/conflict
latencies, per-channel data-bus bandwidth limits, and bank-level
parallelism, computing each 64-byte burst's service time at issue.
Command-level details (refresh, tFAW, write-to-read turnarounds) are
abstracted into the first-order timings; the effects the paper measures
-- bandwidth saturation, row-buffer hit rates, queueing delay -- are
preserved.
"""

from repro.dram.address_map import AddressMap
from repro.dram.bank import Bank
from repro.dram.controller import ChannelController
from repro.dram.device import DRAMDevice
from repro.dram.timing import ResolvedTiming

__all__ = ["AddressMap", "Bank", "ChannelController", "DRAMDevice", "ResolvedTiming"]
