"""SRAM cache hierarchy: L1/L2 private caches, shared L3, MSHRs."""

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mshr import MSHREntry, MSHRFile
from repro.cache.sram_cache import CacheLine, SRAMCache

__all__ = [
    "CacheHierarchy",
    "CacheLine",
    "MSHREntry",
    "MSHRFile",
    "SRAMCache",
]
