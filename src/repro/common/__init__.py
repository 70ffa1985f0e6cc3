"""Shared primitives: address/access types, bit vectors, and statistics."""

from repro.common.bitvector import BitVector
from repro.common.stats import (
    BandwidthMeter,
    Counter,
    Histogram,
    RunningMean,
    StatGroup,
)
from repro.common.types import (
    CACHE_LINE_SIZE,
    MemAccess,
    PAGE_SIZE,
    SUB_BLOCK_SIZE,
    SUB_BLOCKS_PER_PAGE,
    TrafficClass,
    line_of,
    page_offset,
    sub_block_of,
    vpn_of,
)

__all__ = [
    "BandwidthMeter",
    "BitVector",
    "CACHE_LINE_SIZE",
    "Counter",
    "Histogram",
    "MemAccess",
    "PAGE_SIZE",
    "RunningMean",
    "StatGroup",
    "SUB_BLOCK_SIZE",
    "SUB_BLOCKS_PER_PAGE",
    "TrafficClass",
    "line_of",
    "page_offset",
    "sub_block_of",
    "vpn_of",
]
