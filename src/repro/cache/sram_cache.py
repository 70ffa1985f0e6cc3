"""A functional set-associative SRAM cache.

State (contents, dirty bits) is updated at lookup time; timing is
composed by the hierarchy from the per-level hit latencies of Table II.
Lines are keyed by the hierarchy's ``(core_id << 48) | line`` ints, and
each line remembers the translated burst address it was filled from so
dirty evictions can be routed to the right DRAM device.

Every core memory op probes up to three levels, so this is the hottest
data structure in the simulator.  LRU order is therefore folded into
the (insertion-ordered) set dicts themselves instead of a parallel
policy structure: the first key of a set dict is the victim, and a
touch re-inserts the line at the back.  Keys are non-negative ints, so
``key % num_sets`` indexes the set directly (it equals
``hash(key) % num_sets`` for every key below 2**61 - 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.inline_state import InlineState
from repro.config.system import CacheConfig


class CacheLine:
    __slots__ = ("key", "paddr", "dirty")

    def __init__(self, key: int, paddr: int, dirty: bool = False):
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
        self._sets: List[Dict[int, CacheLine]] = [
            dict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int, is_write: bool = False) -> Optional[CacheLine]:
        """Probe for ``key``; on a hit updates recency and dirty state
        and returns the line, on a miss returns None."""
        cache_set = self._sets[key % self.num_sets]
        line = cache_set.get(key)
        if line is None:
            self.misses += 1
            return None
        del cache_set[key]
        cache_set[key] = line
        if is_write:
            line.dirty = True
        self.hits += 1
        return line

    def contains(self, key: int) -> bool:
        """Probe without updating recency or counters."""
        return key in self._sets[key % self.num_sets]

    def insert(self, key: int, paddr: int, dirty: bool = False) -> Optional[CacheLine]:
        """Fill ``key``; returns the evicted victim line (if any)."""
        cache_set = self._sets[key % self.num_sets]
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

    def invalidate(self, key: int) -> Optional[CacheLine]:
        """Remove ``key``; returns the line (caller handles dirty data)."""
        return self._sets[key % self.num_sets].pop(key, None)

    def invalidate_run(self, first: int, count: int) -> List[CacheLine]:
        """Remove keys ``first .. first + count - 1``; returns the lines
        that were present, in key order (caller handles dirty data)."""
        sets = self._sets
        num_sets = self.num_sets
        lines = []
        for key in range(first, first + count):
            line = sets[key % num_sets].pop(key, None)
            if line is not None:
                lines.append(line)
        return lines

    def update_paddr(self, key: int, paddr: int) -> None:
        line = self._sets[key % self.num_sets].get(key)
        if line is not None:
            line.paddr = paddr

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
