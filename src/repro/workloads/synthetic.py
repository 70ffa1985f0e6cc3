"""Parametric synthetic memory-trace generator.

A workload is described by a :class:`WorkloadSpec`:

* ``footprint_pages`` -- working-set size (drives DC miss rate),
* ``mem_ratio``       -- memory instructions per instruction (drives
  LLC MPMS together with locality),
* page selection      -- ``stream`` (sequential sweep), ``zipf``
  (power-law reuse: hot pages stay DC-resident) or ``uniform``,
* ``mean_run_lines``  -- consecutive 64 B lines touched per page visit
  (spatial locality; 64 = whole page, the regime where 4 KB OS-managed
  caching shines, ~16 = the 1 KB-locality regime where TiD wins, as the
  paper observes for bfs),
* ``write_frac`` / ``dep_frac`` -- store mix and serialized
  (pointer-chasing) load fraction,
* burstiness          -- alternate dense/sparse phases (libq, gems).

Traces are produced in numpy chunks and flattened lazily, so arbitrarily
long traces stream in O(chunk) memory.  Generation is deterministic per
(spec, seed, core).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

import numpy as np

from repro.common.inline_state import InlineState
from repro.common.stats import CacheTally
from repro.common.types import PAGE_SIZE

_LINES_PER_PAGE = 64
# Scatter hot Zipf pages across the address space with a fixed bijection
# (multiplication by an odd constant mod footprint is invertible).
_SCATTER_PRIME = 2654435761


@dataclass(frozen=True)
class WorkloadSpec(InlineState):
    """Everything that defines a synthetic benchmark."""

    name: str
    footprint_pages: int
    mem_ratio: float = 0.2
    page_select: str = "stream"  # stream | zipf | uniform
    zipf_skew: float = 2.0  # larger = hotter hot set (zipf mode)
    mean_run_lines: int = 48
    write_frac: float = 0.25
    dep_frac: float = 0.1
    bursty: bool = False
    burst_phase_ops: int = 2048
    burst_idle_multiplier: int = 6
    # Fraction of page visits that go to a *cold* streaming region
    # (each cold page is touched once and never again).  This decouples
    # a workload's fill rate (RMHB) from its reuse structure: zipf
    # workloads keep a resident hot set while the cold tail sets the
    # miss-handling bandwidth.
    cold_frac: float = 0.0
    # Streaming temporal reuse (stencil-style): fraction of visits that
    # go back to one of the last ``reuse_window`` streamed pages.  The
    # window is sized past the L3 but well within DC residency, so these
    # re-accesses are exactly the traffic a DRAM cache accelerates.
    reuse_frac: float = 0.0
    reuse_window: int = 256
    num_mem_ops: int = 50_000

    def scaled(self, **overrides) -> "WorkloadSpec":
        """A copy with some fields replaced (e.g., shorter traces)."""
        return replace(self, **overrides)


class SyntheticWorkload:
    """Iterable of trace tuples for one core."""

    CHUNK_VISITS = 512

    def __init__(self, spec: WorkloadSpec, seed: int = 1, core_id: int = 0):
        if spec.footprint_pages <= 0:
            raise ValueError(f"{spec.name}: footprint must be positive")
        if not 0 < spec.mem_ratio <= 1:
            raise ValueError(f"{spec.name}: mem_ratio must be in (0, 1]")
        if not 1 <= spec.mean_run_lines <= _LINES_PER_PAGE:
            raise ValueError(f"{spec.name}: mean_run_lines must be in [1, 64]")
        self.spec = spec
        self.core_id = core_id
        # crc32, not hash(): str hash is salted per interpreter, and the
        # campaign layer needs bit-identical traces across worker
        # processes and sessions for result-store hits to be sound.
        name_tag = zlib.crc32(spec.name.encode()) & 0xFFFF
        self._rng = np.random.default_rng((seed, core_id, name_tag))
        # Streams start at page 0 so the warmup plan (the trailing
        # dc-share of pages) lines up with the reuse window.
        self._stream_pos = 0 if spec.page_select == "stream" else int(
            self._rng.integers(0, spec.footprint_pages)
        )
        self._cold_pos = spec.footprint_pages  # cold pages live past the hot set
        self._ops_emitted = 0

    # -- page/run sampling ---------------------------------------------------

    def _sample_pages(self, n: int) -> np.ndarray:
        spec = self.spec
        if spec.page_select == "stream":
            if spec.reuse_frac > 0:
                reuse = self._rng.random(n) < spec.reuse_frac
                steps = (~reuse).astype(np.int64)
                # Stream position just before each visit.
                pos = self._stream_pos + np.cumsum(steps) - steps
                back = self._rng.integers(1, spec.reuse_window + 1, size=n)
                pages = np.where(reuse, pos - back, pos) % spec.footprint_pages
                self._stream_pos = int(
                    (self._stream_pos + steps.sum()) % spec.footprint_pages
                )
                return pages
            pages = (self._stream_pos + np.arange(n)) % spec.footprint_pages
            self._stream_pos = int((self._stream_pos + n) % spec.footprint_pages)
            return pages
        if spec.page_select == "uniform":
            return self._rng.integers(0, spec.footprint_pages, size=n)
        if spec.page_select == "zipf":
            # Inverse-CDF power law over page ranks, then scatter ranks
            # across the footprint so hot pages are not contiguous.
            u = self._rng.random(n)
            ranks = np.floor(spec.footprint_pages * u ** spec.zipf_skew).astype(np.int64)
            return (ranks * _SCATTER_PRIME) % spec.footprint_pages
        raise ValueError(f"unknown page_select {spec.page_select!r}")

    def _sample_runs(self, n: int) -> np.ndarray:
        mean = self.spec.mean_run_lines
        if mean >= _LINES_PER_PAGE:
            return np.full(n, _LINES_PER_PAGE, dtype=np.int64)
        runs = self._rng.geometric(1.0 / mean, size=n)
        return np.clip(runs, 1, _LINES_PER_PAGE)

    # -- chunk assembly --------------------------------------------------------

    def _make_chunk(self, max_ops: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        spec = self.spec
        n = self.CHUNK_VISITS
        pages = self._sample_pages(n)
        if spec.cold_frac > 0:
            cold = self._rng.random(n) < spec.cold_frac
            k = int(cold.sum())
            if k:
                pages = pages.copy()
                pages[cold] = self._cold_pos + np.arange(k)
                self._cold_pos += k
        runs = self._sample_runs(n)
        total = int(runs.sum())
        starts = (self._rng.integers(0, _LINES_PER_PAGE, size=n)) % (
            _LINES_PER_PAGE - runs + 1
        )
        page_rep = np.repeat(pages, runs)
        ends = np.cumsum(runs)
        within = np.arange(total) - np.repeat(ends - runs, runs)
        lines = np.repeat(starts, runs) + within
        addrs = page_rep * PAGE_SIZE + lines * 64

        mean_gap = (1.0 - spec.mem_ratio) / spec.mem_ratio
        if mean_gap > 0:
            gaps = self._rng.geometric(1.0 / (mean_gap + 1.0), size=total) - 1
        else:
            gaps = np.zeros(total, dtype=np.int64)
        if spec.bursty:
            op_index = self._ops_emitted + np.arange(total)
            idle = (op_index // spec.burst_phase_ops) % 2 == 1
            gaps = np.where(idle, gaps * spec.burst_idle_multiplier, gaps)
        writes = self._rng.random(total) < spec.write_frac
        deps = (~writes) & (self._rng.random(total) < spec.dep_frac)

        if total > max_ops:
            addrs, gaps, writes, deps = (
                a[:max_ops] for a in (addrs, gaps, writes, deps)
            )
            total = max_ops
        self._ops_emitted += total
        return gaps, addrs, writes, deps

    # -- iteration ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, int, bool, bool]]:
        # ``ndarray.tolist()`` converts each chunk to native ints/bools in
        # C, and ``zip`` assembles the op tuples without a Python-level
        # loop body -- element-for-element identical to the old
        # ``(int(gaps[i]), ...)`` path, an order of magnitude faster.
        remaining = self.spec.num_mem_ops
        while remaining > 0:
            gaps, addrs, writes, deps = self._make_chunk(remaining)
            remaining -= len(gaps)
            yield from zip(
                gaps.tolist(), addrs.tolist(), writes.tolist(), deps.tolist()
            )

    def materialize(self) -> list:
        """The whole trace as a list of ``(gap, addr, write, dep)`` tuples.

        Consumes this generator's RNG stream; call on a fresh instance.
        """
        return list(self)

    def __len__(self) -> int:
        return self.spec.num_mem_ops


# -- trace memoization ---------------------------------------------------------
#
# A scheme comparison re-runs the same (spec, seed, core) trace once per
# scheme; generation is deterministic, so the materialized op list can be
# shared.  One in-process insertion-ordered LRU holds the most recent
# traces (a few MB each, so the bound is small).  Nothing is kept on
# disk: a trace is fixed by its (spec, seed, core) and regenerating it
# costs about as much as loading a stored copy would.

_TRACE_CACHE: "dict[tuple, list]" = {}
_TRACE_CACHE_MAX = 32

# Hits are LRU hits, misses full generations.
TRACE_COUNTS = CacheTally("hits", "misses", "evictions")


def trace_cache_stats() -> dict:
    """Counters and bounds of the trace LRU."""
    out = dict(TRACE_COUNTS.total)
    out["size"] = len(_TRACE_CACHE)
    out["maxsize"] = _TRACE_CACHE_MAX
    # Always 0: traces are never stored on disk, but the benchmark
    # ledger (perfbench/ledger.py) still adds this key to its lookups.
    out["disk_hits"] = 0
    return out


def materialized_trace(spec: WorkloadSpec, seed: int, core_id: int) -> list:
    """Memoized ``SyntheticWorkload(spec, seed, core_id).materialize()``.

    The returned list is shared between callers and must not be mutated.
    """
    key = (spec, seed, core_id)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        # LRU touch: move to the back of the insertion order.
        del _TRACE_CACHE[key]
        _TRACE_CACHE[key] = trace
        TRACE_COUNTS.add("hits")
        return trace
    trace = SyntheticWorkload(spec, seed=seed, core_id=core_id).materialize()
    TRACE_COUNTS.add("misses")
    if len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
        del _TRACE_CACHE[next(iter(_TRACE_CACHE))]
        TRACE_COUNTS.add("evictions")
    _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all memoized traces and reset the counters."""
    _TRACE_CACHE.clear()
    TRACE_COUNTS.clear()
