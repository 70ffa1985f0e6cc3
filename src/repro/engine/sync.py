"""Event-driven synchronization primitives.

The NOMAD front-end treats cache-frame management as a critical section
guarded by one mutex (Algorithms 1 and 2); with several cores taking DC
tag misses concurrently, queueing on this mutex is what stretches the
observed tag-management latency from the base 400 cycles up to several
thousand (Section IV-A).  ``Mutex`` reproduces that queueing exactly:
FIFO grant order, zero-cost hand-off.

For diagnosability the mutex tracks who holds it (an ``owner`` label
passed to :meth:`acquire`, defaulting to the callback's qualname), since
a misbalanced release otherwise names only the mutex -- useless when
the tag miss handler and the eviction daemon share one lock.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.common.inline_state import InlineState
from repro.engine.simulator import Simulator


def _callable_label(fn: Callable) -> str:
    label = getattr(fn, "__qualname__", None)
    if label:
        return label
    return type(fn).__name__


class Mutex(InlineState):
    """FIFO mutex; ``acquire`` calls back when the lock is granted."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: deque = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0
        # Holder bookkeeping for error messages and guard snapshots.
        self._holder: Optional[str] = None
        self._holder_since = 0
        self._last_holder: Optional[str] = None
        self._last_release_time: Optional[int] = None

    def acquire(self, granted: Callable[[], None],
                owner: Optional[str] = None) -> None:
        """Request the lock; ``granted()`` runs when it is held.

        The callback fires synchronously when the lock is free, otherwise
        at the simulated time of a later :meth:`release`.  ``owner``
        labels the acquirer in diagnostics (defaults to the callback's
        qualified name).
        """
        label = owner if owner is not None else _callable_label(granted)
        self.acquisitions += 1
        if not self._locked:
            self._locked = True
            self._holder = label
            self._holder_since = self.sim.now
            granted()
        else:
            self.contended_acquisitions += 1
            self._waiters.append((granted, label))

    def release(self) -> None:
        """Free the lock, handing it to the next waiter (if any)."""
        if not self._locked:
            if self._last_holder is not None:
                history = (
                    f"last held by {self._last_holder!r} "
                    f"(released at t={self._last_release_time})"
                )
            else:
                history = "never acquired"
            raise RuntimeError(
                f"{self.name}: release of an unheld mutex "
                f"at t={self.sim.now} ({history})"
            )
        self._last_holder = self._holder
        self._last_release_time = self.sim.now
        if self._waiters:
            waiter, label = self._waiters.popleft()
            # Stay locked; the waiter now holds it.  Fire in a fresh event
            # so the releaser's call stack unwinds first.
            self._holder = label
            self._holder_since = self.sim.now
            self.sim.schedule(0, waiter)
        else:
            self._locked = False
            self._holder = None

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def holder(self) -> Optional[str]:
        """Label of the current holder (None while free)."""
        return self._holder

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)
