"""A deterministic discrete-event queue.

Events are ordered by (time, sequence number), so two events scheduled for
the same cycle fire in scheduling order.  Determinism matters here: the
paper's contention effects (mutex queueing in the NOMAD front-end, PCSHR
allocation races) must be reproducible run-to-run for the experiment
harness to produce stable tables.

Hot-path layout: the heap holds ``(time, seq, event)`` tuples so heap
sifting compares plain ints and never calls back into Python-level
``__lt__`` (``seq`` is unique, so the event object itself is never
compared).  Cancellation stays a tombstone on the :class:`Event` handle,
but a live-event counter is maintained on push/pop/cancel so ``len()``
is O(1).  The layout is private to this module: the simulator
schedules through :meth:`EventQueue.push` and dispatches through
:meth:`EventQueue.pop`/:meth:`EventQueue.peek_time`, and only the
guard's checkers and chaos injections read the heap directly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.common.inline_state import InlineState


class Event:
    """One scheduled callback.  Cancellation is a tombstone flag."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(self, time: int, seq: int, callback: Callable[[], None], queue):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        # Back-reference for the live counter; cleared once the event is
        # popped (cancelling an already-fired event must not decrement).
        self._queue = queue

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None


class EventQueue(InlineState):
    """Min-heap of :class:`Event` with stable same-cycle ordering."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self._live = 0

    def push(self, time: int, callback: Callable[[], None]) -> Event:
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next live event, skipping tombstones; None when empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                self._live -= 1
                event._queue = None
                return event
        return None

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heapq.heappop(heap)
        return None

    def first_live(self) -> Optional[Event]:
        """The next live event without popping anything (diagnostics).

        A scan rather than a heap peek: past index 0 heap order is not
        time order, and :meth:`peek_time` mutates (it drops tombstones).
        """
        live = [entry for entry in self._heap if not entry[2].cancelled]
        return min(live)[2] if live else None

    def __len__(self) -> int:
        return self._live

    @property
    def empty(self) -> bool:
        return self._live == 0
