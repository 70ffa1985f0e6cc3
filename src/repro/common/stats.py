"""Statistics primitives used throughout the simulator.

Every component owns a :class:`StatGroup` so the harness can pull a flat
dictionary of metrics after a run.  The types here cover everything the
paper's evaluation reports: counters (miss counts), running means (tag
management latency, DC access time), histograms (latency distributions),
and bandwidth meters split by :class:`~repro.common.types.TrafficClass`
(the Fig. 10 breakdown).

Components on the per-access hot path do not pay for these objects per
event: they accumulate plain int attributes and register a sync hook via
:meth:`StatGroup.set_sync` that flushes the totals into the group the
moment anyone *reads* it (``get``/``as_dict``/``names``/``in``).  The
flush is idempotent (it overwrites with totals rather than adding), so
repeated snapshots are safe.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, Iterable, Optional

from repro.common.types import TrafficClass


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class RunningMean:
    """Streaming mean/min/max without storing samples."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        if self.min is None or sample < self.min:
            self.min = sample
        if self.max is None or sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return f"RunningMean({self.name}: n={self.count}, mean={self.mean:.2f})"


class Histogram:
    """A bucketed histogram with power-of-two or linear buckets."""

    __slots__ = ("name", "bucket_width", "buckets", "count", "total")

    def __init__(self, name: str, bucket_width: int = 0):
        """``bucket_width`` of 0 selects power-of-two bucketing."""
        self.name = name
        self.bucket_width = bucket_width
        self.buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.total = 0

    def _bucket(self, sample: int) -> int:
        if self.bucket_width:
            return (sample // self.bucket_width) * self.bucket_width
        if sample <= 0:
            return 0
        return 1 << (sample.bit_length() - 1)

    def add(self, sample: int) -> None:
        # _bucket() inlined: this runs once per DC access.
        width = self.bucket_width
        if width:
            bucket = (sample // width) * width
        elif sample <= 0:
            bucket = 0
        else:
            bucket = 1 << (sample.bit_length() - 1)
        self.buckets[bucket] += 1
        self.count += 1
        self.total += sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def items(self):
        return sorted(self.buckets.items())

    def percentile(self, p: float) -> int:
        """Approximate percentile (lower bucket bound); p in [0, 100]."""
        if not self.count:
            return 0
        target = self.count * p / 100.0
        seen = 0
        last = 0
        for bucket, n in self.items():
            seen += n
            last = bucket
            if seen >= target:
                return bucket
        return last


class BandwidthMeter:
    """Bytes transferred per traffic class; converts to GB/s on demand."""

    __slots__ = ("name", "bytes_by_class")

    def __init__(self, name: str):
        self.name = name
        self.bytes_by_class: Dict[TrafficClass, int] = defaultdict(int)

    def record(self, traffic_class: TrafficClass, num_bytes: int) -> None:
        self.bytes_by_class[traffic_class] += num_bytes

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def gbps(self, elapsed_cycles: int, cycles_per_second: float) -> float:
        """Aggregate bandwidth in GB/s over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        seconds = elapsed_cycles / cycles_per_second
        return self.total_bytes / seconds / 1e9

    def breakdown(self) -> Dict[str, float]:
        """Fraction of bytes per traffic class (sums to 1 when non-empty)."""
        total = self.total_bytes
        if not total:
            return {}
        return {tc.name: b / total for tc, b in self.bytes_by_class.items()}


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


class StatGroup:
    """A named collection of statistics owned by one component.

    A component that counts on its hot path with plain int attributes
    registers a flush hook via :meth:`set_sync`; the hook runs before
    any read of the group, so external observers always see totals.
    """

    __slots__ = ("name", "_stats", "_sync")

    def __init__(self, name: str):
        self.name = name
        self._stats: Dict[str, object] = {}
        self._sync: Optional[callable] = None

    def set_sync(self, hook) -> None:
        """Install ``hook()`` to flush owner-side counters before reads."""
        self._sync = hook

    def sync(self) -> None:
        """Flush owner-side counters now (idempotent by contract).

        Snapshots and crash bundles call this explicitly so the state
        they capture carries exact totals, not the stale StatGroup view.
        """
        if self._sync is not None:
            self._sync()

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def mean(self, name: str) -> RunningMean:
        return self._get_or_create(name, RunningMean)

    def histogram(self, name: str, bucket_width: int = 0) -> Histogram:
        if name not in self._stats:
            self._stats[name] = Histogram(name, bucket_width)
        stat = self._stats[name]
        if not isinstance(stat, Histogram):
            raise TypeError(f"stat {name!r} already exists with type {type(stat)}")
        return stat

    def bandwidth(self, name: str) -> BandwidthMeter:
        return self._get_or_create(name, BandwidthMeter)

    def _get_or_create(self, name: str, cls):
        if name not in self._stats:
            self._stats[name] = cls(name)
        stat = self._stats[name]
        if not isinstance(stat, cls):
            raise TypeError(f"stat {name!r} already exists with type {type(stat)}")
        return stat

    def __contains__(self, name: str) -> bool:
        if self._sync is not None:
            self._sync()
        return name in self._stats

    def names(self) -> Iterable[str]:
        if self._sync is not None:
            self._sync()
        return self._stats.keys()

    def get(self, name: str):
        if self._sync is not None:
            self._sync()
        return self._stats[name]

    def as_dict(self) -> Dict[str, object]:
        """Flatten to ``{stat_name: scalar}`` for reporting."""
        if self._sync is not None:
            self._sync()
        out: Dict[str, object] = {}
        for name, stat in self._stats.items():
            if isinstance(stat, Counter):
                out[name] = stat.value
            elif isinstance(stat, RunningMean):
                out[f"{name}.mean"] = stat.mean
                out[f"{name}.count"] = stat.count
                out[f"{name}.max"] = stat.max
            elif isinstance(stat, Histogram):
                out[f"{name}.mean"] = stat.mean
                out[f"{name}.count"] = stat.count
                out[f"{name}.p50"] = stat.percentile(50)
                out[f"{name}.p95"] = stat.percentile(95)
                out[f"{name}.p99"] = stat.percentile(99)
            elif isinstance(stat, BandwidthMeter):
                out[f"{name}.total_bytes"] = stat.total_bytes
                for tc, b in stat.bytes_by_class.items():
                    out[f"{name}.{tc.name}"] = b
        return out
