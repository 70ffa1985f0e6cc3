"""Statistics helpers.

Simulator components count with plain int attributes on their hot paths
and report them through :meth:`repro.engine.simulator.Component.metrics`,
which builds a flat ``{stat: value}`` dict from the live counters when
called.  This module holds what those reports share: :class:`Mean` for
running means that are not already kept as ints, and two helpers that
render a mean (``.mean/.count/.max``) and a power-of-two latency
histogram (``.mean/.count/.p50/.p95/.p99``) under their report keys.

:class:`CacheTally` counts the process-wide cache layers (memo,
snapshot and trace caches) per thread.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Mean:
    """Running count, total and maximum of a sample stream."""

    __slots__ = ("count", "total", "max")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.max: Optional[int] = None

    def add(self, sample: int) -> None:
        self.count += 1
        self.total += sample
        if self.max is None or sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def mean_stats(name: str, count: int, total: int,
               maximum: Optional[int]) -> Dict[str, object]:
    """The report keys of a running mean: ``name.mean/.count/.max``."""
    return {
        f"{name}.mean": total / count if count else 0.0,
        f"{name}.count": count,
        f"{name}.max": maximum,
    }


def percentile(buckets: Dict[int, int], p: float) -> int:
    """Approximate percentile of a ``{bucket: samples}`` histogram whose
    buckets are powers of two (a sample counts in the largest one not
    above it, 0 in bucket 0): the lower bound of the bucket that holds
    it.  ``p`` in [0, 100]."""
    count = sum(buckets.values())
    if not count:
        return 0
    target = count * p / 100.0
    seen = 0
    last = 0
    for bucket, n in sorted(buckets.items()):
        seen += n
        last = bucket
        if seen >= target:
            return bucket
    return last


def histogram_stats(name: str, buckets: Dict[int, int],
                    total: int) -> Dict[str, object]:
    """The report keys of a latency histogram:
    ``name.mean/.count/.p50/.p95/.p99``."""
    count = sum(buckets.values())
    return {
        f"{name}.mean": total / count if count else 0.0,
        f"{name}.count": count,
        f"{name}.p50": percentile(buckets, 50),
        f"{name}.p95": percentile(buckets, 95),
        f"{name}.p99": percentile(buckets, 99),
    }


class CacheTally:
    """A cache layer's event counters (hits, misses, ...), kept twice:
    ``total`` for the whole process and :meth:`thread` for the calling
    thread, so threads sharing one process can each report their own
    work."""

    def __init__(self, *names: str):
        self.names = names
        self.clear()

    def add(self, name: str) -> None:
        self.total[name] += 1
        self._threads.counts[name] += 1

    def thread(self) -> Dict[str, int]:
        """The calling thread's counts since the last :meth:`clear`."""
        return dict(self._threads.counts)

    def clear(self) -> None:
        self.total = dict.fromkeys(self.names, 0)
        self._threads = _ThreadCounts(self.names)


class _ThreadCounts(threading.local):
    def __init__(self, names):
        self.counts = dict.fromkeys(names, 0)
