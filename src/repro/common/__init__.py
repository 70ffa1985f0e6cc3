"""Shared primitives: address/access types, bit vectors, and statistics."""

from repro.common.bitvector import BitVector
from repro.common.stats import (
    Mean,
    histogram_stats,
    mean_stats,
    percentile,
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
    "BitVector",
    "CACHE_LINE_SIZE",
    "Mean",
    "MemAccess",
    "PAGE_SIZE",
    "SUB_BLOCK_SIZE",
    "SUB_BLOCKS_PER_PAGE",
    "TrafficClass",
    "histogram_stats",
    "line_of",
    "mean_stats",
    "page_offset",
    "percentile",
    "sub_block_of",
    "vpn_of",
]
