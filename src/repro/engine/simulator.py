"""The simulator: global clock, event dispatch, component registry."""

from __future__ import annotations

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
        # never imports the guard package; None keeps run() hook-free.
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
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute time >= now."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self._queue.push(time, callback)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue; returns the number of events processed.

        ``until`` bounds simulated time (events after it stay queued);
        ``max_events`` bounds work, guarding against runaway feedback loops
        in a buggy component.  An attached guard's hooks run around each
        callback; the dispatch order is the same either way, so guarded
        runs stay bit-identical.  Bounded and guarded runs keep
        ``events_processed`` exact per event, so a guard exception leaves
        the count the crash bundle and its replay need.
        """
        processed = 0
        self._stopped = False
        queue = self._queue
        pop = queue.pop
        guard = self._guard
        if guard is None and until is None and max_events is None:
            # The common, unbounded call: no bound checks in the loop.
            while not self._stopped:
                event = pop()
                if event is None:
                    break
                self.now = event.time
                event.callback()
                processed += 1
            self.events_processed += processed
            return processed
        peek_time = queue.peek_time
        while not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            time = peek_time()
            if time is None:
                break
            if until is not None and time > until:
                self.now = until
                break
            event = pop()
            self.now = time
            if guard is not None:
                guard.before_event(time, event.seq, event.callback)
            event.callback()
            processed += 1
            self.events_processed += 1
            if guard is not None:
                guard.after_event()
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
