"""The page copy buffer pool.

Each in-flight page copy stages its 4 KB of data in a page copy buffer
(Fig. 3).  The default design pairs one buffer with every PCSHR; the
area-optimized design of Section IV-B7 provisions fewer buffers than
PCSHRs, so a freshly allocated PCSHR may have to wait for a buffer
before its transfers launch.  The pool is a FIFO counting semaphore.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.common.inline_state import InlineState
from repro.engine.simulator import Simulator


class PageCopyBufferPool(InlineState):
    """FIFO pool of page copy buffers."""

    def __init__(self, sim: Simulator, count: int):
        if count <= 0:
            raise ValueError(f"need at least one page copy buffer, got {count}")
        self.sim = sim
        self.count = count
        self.free = count
        self._waiters: deque = deque()
        self.acquisitions = 0
        self.waits = 0

    def acquire(self, granted: Callable[[], None]) -> None:
        """``granted()`` runs (synchronously if possible) holding a buffer."""
        self.acquisitions += 1
        if self.free > 0:
            self.free -= 1
            granted()
        else:
            self.waits += 1
            self._waiters.append(granted)

    def release(self) -> None:
        if self._waiters:
            waiter = self._waiters.popleft()
            self.sim.schedule(0, waiter)
        else:
            self.free += 1
            if self.free > self.count:
                raise RuntimeError("released more buffers than exist")

    @property
    def in_use(self) -> int:
        return self.count - self.free
