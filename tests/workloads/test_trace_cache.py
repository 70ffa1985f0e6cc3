"""Trace cache: one bounded in-memory LRU with counters."""

import pytest

from repro.workloads import synthetic
from repro.workloads.presets import workload
from repro.workloads.synthetic import (
    SyntheticWorkload,
    clear_trace_cache,
    materialized_trace,
    trace_cache_stats,
)


def _spec(name="sop", ops=120):
    return workload(name, dc_pages=2048, num_cores=2, num_mem_ops=ops)


@pytest.fixture(autouse=True)
def _pristine_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def test_memory_hit_and_miss_counters():
    materialized_trace(_spec(), seed=1, core_id=0)
    stats = trace_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    materialized_trace(_spec(), seed=1, core_id=0)
    stats = trace_cache_stats()
    assert stats["hits"] == 1 and stats["size"] == 1
    # Traces are never stored on disk; the key stays for readers that
    # still count disk hits into their lookups.
    assert stats["disk_hits"] == 0


def test_distinct_keys_do_not_collide():
    a = materialized_trace(_spec(), seed=1, core_id=0)
    b = materialized_trace(_spec(), seed=2, core_id=0)
    c = materialized_trace(_spec(), seed=1, core_id=1)
    assert trace_cache_stats()["misses"] == 3
    assert a != b and a != c


def test_memory_layer_is_bounded(monkeypatch):
    monkeypatch.setattr(synthetic, "_TRACE_CACHE_MAX", 2)
    for seed in (1, 2, 3):
        materialized_trace(_spec(), seed=seed, core_id=0)
    stats = trace_cache_stats()
    assert stats["size"] == 2 and stats["maxsize"] == 2
    assert stats["evictions"] == 1
    # seed=1 was evicted: regenerating it is a miss, not a hit.
    materialized_trace(_spec(), seed=1, core_id=0)
    assert trace_cache_stats()["hits"] == 0


def test_memoized_trace_equals_a_fresh_generation():
    spec = _spec("cact")
    first = materialized_trace(spec, seed=5, core_id=0)
    assert materialized_trace(spec, seed=5, core_id=0) is first
    assert first == SyntheticWorkload(spec, seed=5, core_id=0).materialize()
    # Native scalars, not numpy: downstream code mixes them into dicts
    # and bit-identity depends on exact types.
    gap, addr, is_write, dep = first[0]
    assert type(gap) is int and type(addr) is int
    assert type(is_write) is bool
