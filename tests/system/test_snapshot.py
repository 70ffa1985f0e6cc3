"""Machine snapshot/fork: bit-identity, versioning, refusal cases.

The snapshot cache only exists to make sweeps cheaper; it must be
invisible in every result.  These tests pin that: a forked machine's
run -- plain, guarded, or telemetry-observed -- is ``to_dict``-equal to
a freshly built one, across schemes, workloads, seeds, and trace
lengths.
"""

import gc
import pickle
import sys

import pytest

from repro.config.system import scaled_system
from repro.harness import runner
from repro.harness.runner import RunConfig
from repro.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCache,
    SnapshotError,
    snapshot_eligible,
    snapshot_key,
)
from repro.system.builder import build_machine
from repro.system.machine import Machine
from repro.workloads.synthetic import clear_trace_cache

OPS = 300
CORES = 2
DC_MB = 8


def _build(scheme, workload="sop", ops=OPS, seed=1):
    cfg = scaled_system(num_cores=CORES, dc_megabytes=DC_MB)
    return build_machine(scheme, workload_name=workload, cfg=cfg,
                        num_mem_ops=ops, seed=seed)


@pytest.fixture(autouse=True)
def _fresh_caches():
    runner.clear_cache()
    runner.clear_snapshot_cache()
    clear_trace_cache()
    yield
    runner.clear_cache()
    runner.clear_snapshot_cache()
    clear_trace_cache()


# -- round-trip bit-identity ---------------------------------------------------


@pytest.mark.parametrize("scheme", ["tid", "tdc", "nomad", "unthrottled"])
@pytest.mark.parametrize("workload", ["cact", "sop"])
def test_fork_same_seed_bit_identical(scheme, workload):
    blob = _build(scheme, workload).snapshot()
    forked = Machine.restore(blob).run()
    fresh = _build(scheme, workload).run()
    assert forked.to_dict() == fresh.to_dict()


def test_fork_with_different_seed_matches_fresh_build():
    blob = _build("nomad").snapshot()
    forked = Machine.restore(blob, seed=9).run()
    fresh = _build("nomad", seed=9).run()
    assert forked.to_dict() == fresh.to_dict()


def test_fork_with_different_trace_length_matches_fresh_build():
    blob = _build("tdc", ops=OPS).snapshot()
    forked = Machine.restore(blob, seed=2, num_mem_ops=500).run()
    fresh = _build("tdc", ops=500, seed=2).run()
    assert forked.to_dict() == fresh.to_dict()


def test_every_fork_is_independent():
    """Two forks of one blob never share mutable state."""
    blob = _build("tid").snapshot()
    first = Machine.restore(blob).run()
    second = Machine.restore(blob).run()  # would diverge if state leaked
    assert first.to_dict() == second.to_dict()


def test_guarded_fork_bit_identical():
    blob = _build("nomad", "cact").snapshot()
    forked = Machine.restore(blob).run(guard=True)
    fresh = _build("nomad", "cact").run()
    assert forked.to_dict() == fresh.to_dict()


def test_telemetry_fork_bit_identical():
    blob = _build("tdc", "cact").snapshot()
    forked = Machine.restore(blob).run(telemetry=True)
    fresh = _build("tdc", "cact").run()
    d = forked.to_dict()
    d.pop("__telemetry__", None)
    assert d == fresh.to_dict()


# -- versioning and refusal ----------------------------------------------------


def test_restore_refuses_other_version():
    blob = _build("tdc").snapshot()
    payload = pickle.loads(blob)
    payload["version"] = 999
    with pytest.raises(SnapshotError, match="version"):
        Machine.restore(pickle.dumps(payload))


def test_restore_refuses_blobs_from_before_the_flat_vm_layout():
    """Version 4 pickles page tables and CPDs as flat columns; a blob
    stamped 3 holds per-page objects and must be rebuilt, not forked."""
    assert SNAPSHOT_VERSION == 4
    payload = pickle.loads(_build("nomad").snapshot())
    payload["version"] = 3
    with pytest.raises(SnapshotError, match="version 3"):
        Machine.restore(pickle.dumps(payload))


def _restore_footprint(scheme, dc_mb):
    """Allocator blocks and GC-tracked objects one fork adds."""
    cfg = scaled_system(num_cores=CORES, dc_megabytes=dc_mb)
    # The build materializes the traces the fork re-attaches, so the
    # fork finds them in the trace cache and allocates only the machine.
    blob = build_machine(scheme, workload_name="cact", cfg=cfg,
                         num_mem_ops=OPS).snapshot()
    gc.collect()
    blocks, objects = sys.getallocatedblocks(), len(gc.get_objects())
    fork = Machine.restore(blob)
    grown = (sys.getallocatedblocks() - blocks,
             len(gc.get_objects()) - objects)
    del fork
    return grown


@pytest.mark.parametrize("scheme", ["tdc", "nomad"])
def test_fork_footprint_does_not_grow_with_dc_size(scheme):
    """Page tables, reverse map and CPDs unpickle as one buffer per
    column, so a fork of a 3x larger DRAM cache allocates no more
    objects (the per-frame object layout grew ~2.7x)."""
    small_blocks, small_objects = _restore_footprint(scheme, 16)
    large_blocks, large_objects = _restore_footprint(scheme, 48)
    assert large_blocks <= 1.1 * small_blocks
    assert large_objects <= 1.1 * small_objects


def test_restore_refuses_garbage():
    with pytest.raises(SnapshotError, match="unreadable"):
        Machine.restore(b"not a snapshot")
    with pytest.raises(SnapshotError, match="unreadable"):
        Machine.restore(pickle.dumps({"no": "version"}))


def test_snapshot_refuses_after_run():
    machine = _build("tdc")
    machine.run()
    with pytest.raises(SnapshotError, match="before the run"):
        machine.snapshot()


def test_snapshot_refuses_without_specs():
    machine = _build("tdc")
    machine._specs = None  # a machine assembled from raw traces
    with pytest.raises(SnapshotError, match="raw traces"):
        machine.snapshot()


# -- key derivation and eligibility --------------------------------------------


def test_snapshot_key_ignores_roi_knobs():
    cfg = RunConfig(scheme="nomad", workload="cact", num_mem_ops=OPS,
                    num_cores=CORES, dc_megabytes=DC_MB, seed=1)
    assert snapshot_key(cfg) == snapshot_key(cfg.with_(seed=7))
    assert snapshot_key(cfg) == snapshot_key(cfg.with_(num_mem_ops=999))
    assert snapshot_key(cfg) != snapshot_key(cfg.with_(scheme="tdc"))
    assert snapshot_key(cfg) != snapshot_key(cfg.with_(dc_megabytes=16))
    assert snapshot_key(cfg) != snapshot_key(cfg.with_(workload="sop"))


def test_eligibility_excludes_unprofitable_and_unwarmed():
    cfg = RunConfig(scheme="nomad", workload="cact")
    assert snapshot_eligible(cfg)
    assert not snapshot_eligible(cfg.with_(scheme="baseline"))
    assert not snapshot_eligible(cfg.with_(scheme="ideal"))
    assert not snapshot_eligible(cfg.with_(prewarm=False))


def test_snapshot_cache_lru_and_disable():
    cache = SnapshotCache(maxsize=2)
    cache.put("a", b"1")
    cache.put("b", b"2")
    assert cache.get("a") == b"1"  # refresh: "b" becomes LRU
    cache.put("c", b"3")
    assert cache.get("b") is None
    assert cache.stats()["evictions"] == 1
    disabled = SnapshotCache(maxsize=0)
    disabled.put("a", b"1")
    assert disabled.get("a") is None
    assert disabled.stats()["size"] == 0


# -- runner integration --------------------------------------------------------


def _run_cfg(**over):
    base = RunConfig(scheme="nomad", workload="sop", num_mem_ops=OPS,
                     num_cores=CORES, dc_megabytes=DC_MB, seed=1)
    return base.with_(**over)


def test_run_workload_forks_across_seeds():
    runner.run_workload(_run_cfg(seed=1))
    stats = runner.cache_stats()["snapshot"]
    assert stats["stores"] == 1
    result = runner.run_workload(_run_cfg(seed=2))
    stats = runner.cache_stats()["snapshot"]
    assert stats["hits"] == 1
    # The forked result still equals a rebuilt-from-scratch run.
    runner.clear_cache()
    runner.clear_snapshot_cache()
    prev = runner.configure_snapshots(0)
    try:
        fresh = runner.run_workload(_run_cfg(seed=2))
    finally:
        runner.configure_snapshots(prev)
    assert result.to_dict() == fresh.to_dict()


def test_guarded_run_consumes_but_never_primes():
    cfg = _run_cfg()
    runner.run_workload(cfg, guard=True)
    assert runner.cache_stats()["snapshot"]["stores"] == 0
    runner.run_workload(cfg)  # unguarded: primes
    assert runner.cache_stats()["snapshot"]["stores"] == 1
    runner.run_workload(cfg.with_(seed=3), guard=True)  # may consume
    assert runner.cache_stats()["snapshot"]["hits"] == 1


def test_configure_snapshots_zero_disables_forking():
    prev = runner.configure_snapshots(0)
    try:
        runner.run_workload(_run_cfg(seed=1))
        runner.run_workload(_run_cfg(seed=2))
        stats = runner.cache_stats()["snapshot"]
        assert stats["hits"] == 0 and stats["stores"] == 0
    finally:
        runner.configure_snapshots(prev)
