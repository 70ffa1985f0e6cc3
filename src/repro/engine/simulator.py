"""The simulator: global clock, event dispatch, component registry."""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.common.inline_state import InlineState
from repro.common.stats import StatGroup
from repro.engine.event_queue import Event, EventQueue


class Simulator(InlineState):
    """Owns simulated time and the event queue.

    Components call :meth:`schedule` with a *delay* relative to ``now``.
    The run loop advances ``now`` to each event's timestamp; there is no
    per-cycle ticking, so idle stretches cost nothing.
    """

    def __init__(self):
        self.now = 0
        self._queue = EventQueue()
        self._components: List["Component"] = []
        self._stopped = False
        self.events_processed = 0  # cumulative across run() calls
        # Optional paranoid-mode hook (duck-typed: anything exposing
        # before_event/after_event, see repro.guard.Guard).  The engine
        # never imports the guard package; None keeps the fast loops.
        self._guard = None

    def attach_guard(self, guard) -> None:
        """Install (or with ``None`` remove) the run-loop guard hooks."""
        self._guard = guard

    def register(self, component: "Component") -> None:
        self._components.append(component)

    @property
    def components(self) -> List["Component"]:
        return list(self._components)

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        Body mirrors :meth:`EventQueue.push` (layout contract in the
        queue docstring) so every scheduled event pays one call frame,
        not two.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        queue = self._queue
        time = self.now + delay
        seq = queue._seq
        queue._seq = seq + 1
        event = Event(time, seq, callback, queue)
        heapq.heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute time >= now."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        event = Event(time, seq, callback, queue)
        heapq.heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue; returns the number of events processed.

        ``until`` bounds simulated time (events after it stay queued);
        ``max_events`` bounds work, guarding against runaway feedback loops
        in a buggy component.
        """
        if self._guard is not None:
            return self._run_guarded(until, max_events)
        processed = 0
        self._stopped = False
        # This loop dispatches every event of every run, so it works on
        # the EventQueue internals directly (tuple heap entries, the live
        # counter) instead of paying a peek+pop call pair per event; the
        # queue docstring pins the layout contract.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        if until is None and max_events is None:
            # The common, unbounded call: drop the two bound checks from
            # the loop.  Popping before the cancelled check is equivalent
            # to peeking here because a cancelled head is discarded either
            # way and a live head is popped next anyway.
            while heap and not self._stopped:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                queue._live -= 1
                event._queue = None
                self.now = entry[0]
                event.callback()
                processed += 1
            self.events_processed += processed
            return processed
        while not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            if not heap:
                break
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(heap)
            queue._live -= 1
            event._queue = None
            self.now = time
            event.callback()
            processed += 1
        self.events_processed += processed
        return processed

    def _run_guarded(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The guarded dispatch loop: identical pop order to the fast
        loops (so guarded runs stay bit-identical), with the guard's
        per-event hooks around each callback.  ``events_processed`` is
        maintained per event here, so a guard exception leaves an exact
        count for the crash bundle and its replay.
        """
        guard = self._guard
        before = guard.before_event
        after = guard.after_event
        processed = 0
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        while not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            if not heap:
                break
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(heap)
            queue._live -= 1
            event._queue = None
            self.now = time
            before(time, entry[1], event.callback)
            event.callback()
            processed += 1
            self.events_processed += 1
            after()
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)


class Component(InlineState):
    """Base class for simulated hardware/OS components.

    Provides the owning simulator, a :class:`StatGroup`, and scheduling
    sugar.  Subclasses register themselves so the harness can walk the
    component tree when collecting statistics.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        sim.register(self)

    @property
    def now(self) -> int:
        return self.sim.now

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        return self.sim.schedule(delay, callback)

    def guard_state(self) -> dict:
        """Flat snapshot of diagnostic state for stall reports and crash
        bundles (see ``repro.guard``).  Components with interesting
        internal state override this; values should be scalars."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
