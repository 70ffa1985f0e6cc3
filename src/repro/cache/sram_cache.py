"""A functional set-associative SRAM cache.

State (contents, dirty bits) is updated at lookup time; timing is
composed by the hierarchy from the per-level hit latencies of Table II.
Lines are keyed by a caller-chosen hashable (the hierarchy uses
``(core_id, virtual_line)``), and each line remembers the translated
burst address it was filled from so dirty evictions can be routed to the
right DRAM device.

Every core memory op probes up to three levels, so this is the hottest
data structure in the simulator.  LRU order is therefore folded into
the (insertion-ordered) set dicts themselves instead of a parallel
policy structure: the first key of a set dict is the victim, and a
touch re-inserts the line at the back.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.common.inline_state import InlineState
from repro.config.system import CacheConfig


class CacheLine:
    __slots__ = ("key", "paddr", "dirty")

    def __init__(self, key: Hashable, paddr: int, dirty: bool = False):
        self.key = key
        self.paddr = paddr  # translated byte address of the line at fill time
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"CacheLine(key={self.key!r}, paddr={self.paddr:#x}, dirty={self.dirty})"


class SRAMCache(InlineState):
    """One cache level; sets are insertion-ordered dicts (front = victim)."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        if self.num_sets <= 0:
            raise ValueError(f"{cfg.name}: zero sets (size too small for ways)")
        self.ways = cfg.ways
        self._sets: List[Dict[Hashable, CacheLine]] = [
            dict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_index(self, key: Hashable) -> int:
        return hash(key) % self.num_sets

    def lookup(self, key: Hashable, is_write: bool = False) -> bool:
        """Probe for ``key``; updates recency and dirty state on hit."""
        cache_set = self._sets[hash(key) % self.num_sets]
        line = cache_set.get(key)
        if line is None:
            self.misses += 1
            return False
        del cache_set[key]
        cache_set[key] = line
        if is_write:
            line.dirty = True
        self.hits += 1
        return True

    def contains(self, key: Hashable) -> bool:
        """Probe without updating recency or counters."""
        return key in self._sets[hash(key) % self.num_sets]

    def insert(
        self, key: Hashable, paddr: int, dirty: bool = False
    ) -> Optional[CacheLine]:
        """Fill ``key``; returns the evicted victim line (if any)."""
        cache_set = self._sets[hash(key) % self.num_sets]
        line = cache_set.get(key)
        if line is not None:
            line.dirty = line.dirty or dirty
            line.paddr = paddr
            del cache_set[key]
            cache_set[key] = line
            return None
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(next(iter(cache_set)))
        cache_set[key] = CacheLine(key, paddr, dirty)
        return victim

    def invalidate(self, key: Hashable) -> Optional[CacheLine]:
        """Remove ``key``; returns the line (caller handles dirty data)."""
        return self._sets[hash(key) % self.num_sets].pop(key, None)

    def invalidate_matching(self, predicate) -> List[CacheLine]:
        """Remove every line whose key satisfies ``predicate``.

        Used by the DC eviction flush (Algorithm 2, line 3).  This is a
        full scan and therefore only called on the page-eviction path.
        """
        removed: List[CacheLine] = []
        for cache_set in self._sets:
            doomed = [k for k in cache_set if predicate(k)]
            for key in doomed:
                removed.append(cache_set.pop(key))
        return removed

    def update_paddr(self, key: Hashable, paddr: int) -> None:
        line = self._sets[hash(key) % self.num_sets].get(key)
        if line is not None:
            line.paddr = paddr

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
