"""Campaign handling of deterministic failures: classify + quarantine.

A config that fails the same way twice is deterministic; the campaign
must finish, mark it ``quarantined`` with the failure taxonomy and the
diagnostic bundle path, persist it in the store, and never retry it past
the second attempt -- in this campaign or any later one.
"""

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.campaign.executor import COMPLETED, FAILED, QUARANTINED
from repro.guard import GuardConfig
from repro.harness.runner import RunConfig, clear_cache


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def _configs():
    common = dict(workload="cact", num_mem_ops=600, num_cores=2,
                  dc_megabytes=16)
    return [
        RunConfig(scheme="baseline", **common),
        RunConfig(scheme="nomad", **common),
    ]


def _guard(tmp_path):
    # Chaos scoped to the nomad run: exactly one deterministically
    # failing config in an otherwise healthy campaign.
    return GuardConfig(
        check_interval=200, chaos="leak_mshr", chaos_at_event=400,
        chaos_scheme="nomad", bundle_dir=str(tmp_path),
    )


def test_serial_campaign_quarantines_deterministic_failure(tmp_path):
    store = ResultStore(tmp_path / "store")
    configs = _configs()
    res = run_campaign(configs, store=store, guard=_guard(tmp_path))

    healthy, bad = res.records
    assert healthy.status == COMPLETED
    assert bad.status == QUARANTINED
    assert bad.failure_kind == "invariant"
    assert bad.attempts == 2, "no retry past the second attempt"
    assert bad.bundle_path
    assert "InvariantViolation" in bad.error
    assert "mshr" in bad.traceback
    assert res.summary.quarantined == 1
    assert res.summary.failed == 0
    assert not res.ok

    # Quarantine persisted with the taxonomy + bundle pointer.
    record = store.get_failure(configs[1])
    assert record is not None
    assert record["failure_kind"] == "invariant"
    assert record["bundle_path"] == bad.bundle_path


def test_second_campaign_serves_quarantine_from_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    configs = _configs()
    run_campaign(configs, store=store, guard=_guard(tmp_path))

    res2 = run_campaign(configs, store=store, guard=_guard(tmp_path))
    bad = res2.records[1]
    assert bad.status == QUARANTINED
    assert bad.source == "store"
    assert bad.attempts == 0, "a known-bad config must not be re-run"
    assert bad.failure_kind == "invariant"


def test_pool_campaign_quarantines_with_confirm_pass(tmp_path):
    store = ResultStore(tmp_path / "store")
    configs = _configs()
    res = run_campaign(configs, jobs=2, store=store, guard=_guard(tmp_path))

    healthy, bad = res.records
    assert healthy.status == COMPLETED
    assert bad.status == QUARANTINED
    assert bad.failure_kind == "invariant"
    assert bad.attempts == 2
    assert store.get_failure(configs[1]) is not None


def test_runner_batch_honours_its_guard_settings(tmp_path):
    # A distributed campaign ships its GuardConfig to runners as a dict;
    # the chaos injection in it must reach the runs.
    from repro.service.runner import execute_batch

    items, _delta = execute_batch({
        "batch_id": "b", "campaign_id": "c", "indices": [0, 1],
        "configs": [c.to_dict() for c in _configs()],
        "meta": {"guard": _guard(tmp_path).to_dict()},
    })
    healthy, bad = items
    assert healthy["status"] == COMPLETED
    assert bad["status"] == QUARANTINED
    assert bad["failure_kind"] == "invariant"


def test_guard_of_unknown_type_is_rejected():
    with pytest.raises(TypeError, match="campaign guard"):
        run_campaign(_configs()[:1], guard="paranoid")


@pytest.mark.parametrize("jobs", [1, 2])
def test_stalled_run_is_invariant_at_any_jobs(monkeypatch, jobs):
    """A run's own failure kind reaches its record, in-process or in a
    pool task of one (forked workers inherit the patch)."""
    from repro.guard import DeadlockError
    from repro.system.machine import Machine

    real_run = Machine.run

    def run(self, *args, **kwargs):
        if self.workload_name == "cc":
            raise DeadlockError("simulation stalled: injected")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", run)
    # Baseline never snapshots, so each config is a task of one.
    configs = [RunConfig(scheme="baseline", workload=w, num_mem_ops=300,
                         num_cores=2, dc_megabytes=8) for w in ("sop", "cc")]
    res = run_campaign(configs, jobs=jobs, store=None)
    healthy, bad = res.records
    assert healthy.status == COMPLETED
    assert bad.status == FAILED
    assert bad.failure_kind == "invariant"
    assert bad.attempts == 1
    assert "DeadlockError" in bad.error


def test_guarded_results_do_not_poison_caches(tmp_path):
    store = ResultStore(tmp_path / "store")
    configs = _configs()
    run_campaign(configs, store=store, guard=_guard(tmp_path))
    # Guarded runs bypass the store in both directions.
    assert store.get(configs[0]) is None
    assert len(store) == 0, "quarantine records must not count as results"


def test_quarantine_excluded_from_store_len(tmp_path):
    store = ResultStore(tmp_path / "store")
    cfg = _configs()[1]
    store.put_failure(cfg, {"failure_kind": "invariant", "error": "x"})
    assert len(store) == 0
    assert store.get_failure(cfg)["error"] == "x"


def test_unguarded_failure_records_traceback():
    """Serial unguarded failures keep a formatted traceback + kind."""
    from repro.campaign.executor import FAILED

    bad_cfg = RunConfig(scheme="nomad", workload="cact", num_mem_ops=-5,
                        num_cores=2, dc_megabytes=16)
    res = run_campaign([bad_cfg], store=None)
    (rec,) = res.records
    assert rec.status == FAILED
    assert rec.failure_kind == "crash"
    assert rec.attempts == 1
    assert "Traceback" in rec.traceback
    payload = rec.to_dict()
    assert payload["failure_kind"] == "crash"
    assert payload["attempts"] == 1
    assert payload["traceback"]
