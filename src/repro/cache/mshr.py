"""Miss status/information holding registers.

MSHRs are the classical non-blocking-cache mechanism (Kroft '81;
Farkas & Jouppi '94) that the paper's HW-based baseline relies on and
that NOMAD's PCSHRs generalize to the page granularity.  An entry tracks
one outstanding line miss; subsequent accesses to the same line merge
into the entry instead of issuing duplicate memory requests.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.common.inline_state import InlineState


class MSHREntry:
    """One outstanding miss and its merged waiters.

    Plain slots class: one of these is allocated per LLC miss, which at
    the miss rates the paper studies means one per handful of simulated
    cycles.
    """

    __slots__ = ("key", "issue_time", "waiters")

    def __init__(
        self,
        key: Hashable,
        issue_time: int,
        waiters: Optional[List[Callable[[int], None]]] = None,
    ):
        self.key = key
        self.issue_time = issue_time
        self.waiters = [] if waiters is None else waiters

    def add_waiter(self, callback: Callable[[int], None]) -> None:
        self.waiters.append(callback)


class MSHRFile(InlineState):
    """A bounded set of MSHR entries with merge and overflow queueing.

    ``lookup``/``allocate`` implement the classic flow; when all entries
    are busy, new misses wait in an overflow queue and are allocated as
    entries retire -- modelling the structural stall a full MSHR file
    causes (it bounds a cache's memory-level parallelism, which is
    exactly the effect Figs. 12-14 study for PCSHRs).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"MSHR capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[Hashable, MSHREntry] = {}
        self._overflow: List[Tuple[Hashable, int, Callable[[int], None]]] = []
        self.merges = 0
        self.allocations = 0
        self.overflow_events = 0

    def lookup(self, key: Hashable) -> Optional[MSHREntry]:
        return self._entries.get(key)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def outstanding(self) -> int:
        return len(self._entries)

    def allocate(
        self, key: Hashable, now: int, waiter: Callable[[int], None]
    ) -> str:
        """Register a miss; returns ``"new"``, ``"merged"`` or ``"queued"``.

        ``"new"``  -- caller must issue the memory request for ``key``.
        ``"merged"`` -- an entry already tracks ``key``; waiter attached.
        ``"queued"`` -- file full; the miss waits and the caller will be
        handed the key back from :meth:`retire` via ``"new"`` semantics
        (the drained waiter is returned by :meth:`drain_overflow`).
        """
        entry = self._entries.get(key)
        if entry is not None:
            entry.add_waiter(waiter)
            self.merges += 1
            return "merged"
        if self.full:
            self._overflow.append((key, now, waiter))
            self.overflow_events += 1
            return "queued"
        self._entries[key] = MSHREntry(key, now, [waiter])
        self.allocations += 1
        return "new"

    def retire(self, key: Hashable, now: int) -> List[Callable[[int], None]]:
        """Complete the miss for ``key``; returns its waiters to notify."""
        entry = self._entries.pop(key)
        return entry.waiters

    def drain_overflow(self, now: int) -> Sequence[Hashable]:
        """Promote queued misses into free entries.

        Returns the keys that became ``"new"`` misses (the caller must
        issue their memory requests).  Queued duplicates of the same key
        merge into the first promotion.
        """
        if not self._overflow:
            return ()
        promoted: List[Hashable] = []
        remaining: List[Tuple[Hashable, int, Callable[[int], None]]] = []
        for key, queued_at, waiter in self._overflow:
            entry = self._entries.get(key)
            if entry is not None:
                entry.add_waiter(waiter)
                self.merges += 1
            elif not self.full:
                self._entries[key] = MSHREntry(key, now, [waiter])
                self.allocations += 1
                promoted.append(key)
            else:
                remaining.append((key, queued_at, waiter))
        self._overflow = remaining
        return promoted
