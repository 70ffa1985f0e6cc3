"""Chaos convergence suite: seeded fault schedules vs a serial oracle.

The acceptance bar for the whole service layer: under every seeded
fault schedule -- network faults, injected HTTP errors, disk faults,
runner kills, a broker SIGKILL+restart -- a 12-config campaign's
result store must end up byte-identical to a plain serial run's, with
zero lost and zero double-ingested grid slots.
"""

import json

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.harness.runner import RunConfig, clear_cache
from repro.service.chaos import (
    ALL_KINDS,
    FS_BITFLIP,
    FS_ENOSPC,
    FS_TORN,
    KILL_BROKER,
    KILL_RUNNER,
    NETWORK_KINDS,
    FaultPlan,
    FaultSpec,
    faulty_fs,
    run_chaos_campaign,
    store_file_map,
    stores_identical,
)
from repro.service.index import ResultIndex
from repro.service.journal import Journal
from repro.service.scrub import scrub_store

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
#: The 12-config acceptance grid: every scheme, four seeds.
GRID12 = [
    BASE.with_(scheme=scheme, seed=seed)
    for scheme in ("baseline", "tdc", "nomad")
    for seed in (1, 2, 3, 4)
]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def serial_root(tmp_path_factory):
    """The oracle: the same grid run serially, once per module."""
    root = tmp_path_factory.mktemp("serial") / "store"
    # This module-scoped fixture is set up before the function-scoped
    # _fresh_memo autouse; if an earlier test already ran part of the
    # grid, memo hits would skip the store write and leave the oracle
    # incomplete.
    clear_cache()
    campaign = run_campaign(GRID12, jobs=1, store=ResultStore(root),
                            progress=False)
    assert campaign.ok
    return root


def _assert_converged(result, chaos_root, serial_root):
    assert result.ok
    assert len(result.records) == len(GRID12)
    assert sorted(r.index for r in result.records) == list(range(len(GRID12)))
    identical, diffs = stores_identical(chaos_root, serial_root)
    assert identical, f"store diverged from serial oracle: {diffs}"


def test_no_faults_is_byte_identical_to_serial(tmp_path, serial_root):
    result, report = run_chaos_campaign(
        GRID12, tmp_path / "chaos", runners=2, lease_s=5.0,
        max_wait_s=120.0,
    )
    _assert_converged(result, tmp_path / "chaos", serial_root)
    assert report["broker_restarts"] == 0
    assert report["runner_kills"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_network_schedules_converge(tmp_path, serial_root, seed):
    plan = FaultPlan.seeded(seed, kinds=NETWORK_KINDS, max_at=3)
    result, report = run_chaos_campaign(
        GRID12, tmp_path / "chaos", plan=plan, runners=2, lease_s=5.0,
        max_wait_s=120.0,
    )
    _assert_converged(result, tmp_path / "chaos", serial_root)
    fired = {f[0] for f in report["plan"]["fired"]}
    # The chatty endpoints (/status, /claim) see far more than max_at
    # ops, so a seeded schedule actually exercises its faults.
    assert len(fired) >= 4, f"too few faults fired: {report['plan']}"


def test_broker_kill_restart_resumes_from_journal(tmp_path, serial_root):
    cid = "chaos-broker-kill"
    plan = FaultPlan(
        [FaultSpec(kind=KILL_BROKER, path="broker", at=1)], seed=42
    )
    result, report = run_chaos_campaign(
        GRID12, tmp_path / "chaos", plan=plan, runners=2, lease_s=5.0,
        max_wait_s=120.0, campaign_id=cid,
    )
    _assert_converged(result, tmp_path / "chaos", serial_root)
    assert report["broker_restarts"] == 1
    # The successor broker resumed from the journal alone: no batch
    # that completed before the kill was ever leased out again.
    entries = Journal(tmp_path / "chaos").replay(cid)[cid]
    completed_at = {}
    for pos, entry in enumerate(entries):
        if entry["op"] == "complete":
            assert entry["batch_id"] not in completed_at, \
                "batch completed twice"
            completed_at[entry["batch_id"]] = pos
        elif entry["op"] == "lease":
            assert entry["batch_id"] not in completed_at, \
                "completed batch re-leased after broker restart"
    assert len(completed_at) > 0


def test_runner_kill_mid_batch_requeues_and_converges(tmp_path, serial_root):
    # The worst client-side moment: the batch is executed but the
    # runner dies right before reporting it.  The lease must expire,
    # the batch requeue, and a surviving runner redo the work.
    plan = FaultPlan(
        [FaultSpec(kind=KILL_RUNNER, path="/complete", at=1)], seed=7
    )
    result, report = run_chaos_campaign(
        GRID12, tmp_path / "chaos", plan=plan, runners=2, lease_s=2.0,
        max_wait_s=120.0,
    )
    _assert_converged(result, tmp_path / "chaos", serial_root)
    assert report["runner_kills"] == 1
    assert report["requeues"] >= 1


def test_disk_faults_detected_by_scrub_then_healed(tmp_path, serial_root):
    # Torn write + bit flip + ENOSPC on store records.  ENOSPC fails
    # the ingest (the broker 500s, the runner retries, the rewrite
    # succeeds); torn/bitflip *survive to disk* -- the campaign still
    # converges in memory, scrub finds the damage, and a healing rerun
    # restores byte-identity.
    chaos_root = tmp_path / "chaos"
    plan = FaultPlan([
        FaultSpec(kind=FS_TORN, path="store", at=2),
        FaultSpec(kind=FS_ENOSPC, path="store", at=5),
        FaultSpec(kind=FS_BITFLIP, path="store", at=8),
    ], seed=3)
    with faulty_fs(plan) as fs:
        result, report = run_chaos_campaign(
            GRID12, chaos_root, plan=plan, runners=2, lease_s=5.0,
            max_wait_s=120.0,
        )
    assert result.ok and len(result.records) == len(GRID12)
    assert len(fs.injected) == 3

    store = ResultStore(chaos_root)
    scrub = scrub_store(store, ResultIndex(store.root))
    # ENOSPC never reached disk; torn + bitflip did and must be caught.
    assert len(scrub["corrupt"]) == 2
    assert scrub["moved"] == 2

    clear_cache()  # the heal must recompute, not hit the in-process memo
    healed = run_campaign(GRID12, jobs=1, store=store, progress=False)
    assert healed.ok
    # Only the quarantined slots were recomputed.
    assert sum(1 for r in healed.records if r.status == "completed") == 2
    identical, diffs = stores_identical(chaos_root, serial_root)
    assert identical, diffs
    assert scrub_store(store)["clean"] is True


def test_capstone_every_fault_site_in_one_schedule(tmp_path, serial_root):
    """All 12 fault kinds in a single seeded schedule; the store must
    still converge to the serial oracle after scrub + heal."""
    chaos_root = tmp_path / "chaos"
    plan = FaultPlan.seeded(5, kinds=ALL_KINDS, max_at=3)
    with faulty_fs(plan):
        result, report = run_chaos_campaign(
            GRID12, chaos_root, plan=plan, runners=3, lease_s=2.0,
            max_wait_s=180.0,
        )
    assert result.ok and len(result.records) == len(GRID12)
    fired = {f[0] for f in report["plan"]["fired"]}
    assert len(fired) >= 8, (
        f"schedule exercised only {sorted(fired)}; "
        f"outstanding: {report['plan']['outstanding']}"
    )

    # Disk faults may have corrupted records on disk; scrub + rerun
    # must converge to the oracle byte-for-byte.
    store = ResultStore(chaos_root)
    scrub_store(store, ResultIndex(store.root))
    clear_cache()
    healed = run_campaign(GRID12, jobs=1, store=store, progress=False)
    assert healed.ok
    identical, diffs = stores_identical(chaos_root, serial_root)
    assert identical, diffs
    # Zero lost, zero double-ingested grid slots.
    assert len(store) == len(GRID12)


def test_store_file_map_scopes_to_records(tmp_path):
    store = ResultStore(tmp_path / "s")
    from repro.harness.runner import run_workload

    store.put(BASE, run_workload(BASE))
    store.put_failure(BASE.with_(seed=9), {"failure_kind": "crash",
                                           "error": "x"})
    (tmp_path / "s" / "service").mkdir()
    (tmp_path / "s" / "service" / "noise.json").write_text("{}")
    files = store_file_map(tmp_path / "s")
    assert len(files) == 2
    assert all("service" not in rel for rel in files)


def test_cli_chaos_smoke(tmp_path, capsys):
    from repro.cli import main

    rc = main([
        "chaos", "--seed", "1", "--schemes", "baseline",
        "--seeds", "1,2", "--runners", "2", "--lease", "5",
        "--store", str(tmp_path), "--json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0, out
    assert out["ok"] is True
    assert out["identical"] is True and out["scrub_clean"] is True
