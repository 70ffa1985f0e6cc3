"""Campaign executor: parallel==serial, store reuse, failure summaries."""

import pytest

from repro.campaign import (
    CampaignError,
    GridSpec,
    ResultStore,
    run_campaign,
)
from repro.campaign.store import _RealFS, install_fs
from repro.harness import runner
from repro.harness.runner import RunConfig, clear_cache, run_matrix

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
GRID = GridSpec(schemes=("baseline", "nomad"), workloads=("sop", "cc"),
                base=BASE, axes={"seed": (1, 2)})  # 8 runs


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    prev = runner.set_result_store(None)
    yield
    runner.set_result_store(prev)
    clear_cache()


def test_parallel_equals_serial_on_8_run_grid():
    serial = run_campaign(GRID, jobs=1)
    assert serial.ok and serial.summary.completed == 8
    clear_cache()
    parallel = run_campaign(GRID, jobs=4)
    assert parallel.ok and parallel.summary.completed == 8
    for s_rec, p_rec in zip(serial.records, parallel.records):
        assert s_rec.config == p_rec.config
        assert s_rec.result == p_rec.result  # full stat equality, not just IPC


def test_second_campaign_is_all_store_hits(tmp_path):
    store = ResultStore(tmp_path)
    first = run_campaign(GRID, jobs=2, store=store)
    assert first.summary.completed == 8
    clear_cache()  # drop the memo so only the disk store can answer
    second = run_campaign(GRID, jobs=2, store=ResultStore(tmp_path))
    assert second.summary.cached == 8
    assert second.summary.completed == 0
    assert all(r.source == "store" for r in second.records)
    for a, b in zip(first.records, second.records):
        assert a.result == b.result


def test_memo_hits_reported_as_cached():
    first = run_campaign(GRID, jobs=1)
    assert first.summary.completed == 8
    again = run_campaign(GRID, jobs=1)
    assert again.summary.cached == 8
    assert all(r.source == "memo" for r in again.records)


def test_memo_counts_do_not_depend_on_jobs():
    """prescan looks every config up once and tasks always simulate, so
    an inline campaign and a pool campaign count the same memo misses."""
    grid = GridSpec(schemes=("baseline", "nomad"), workloads=("sop",),
                    base=BASE, axes={"seed": (1, 2)})  # 4 runs
    inline = run_campaign(grid, jobs=1).summary.memo
    clear_cache()
    pooled = run_campaign(grid, jobs=2).summary.memo
    assert (inline["hits"], inline["misses"]) == (0, 4)
    assert (pooled["hits"], pooled["misses"]) == (0, 4)


def test_pool_campaign_stores_no_traces(tmp_path):
    grid = GridSpec(schemes=("baseline", "nomad"), workloads=("sop",),
                    base=BASE, axes={"seed": (1, 2)})
    campaign = run_campaign(grid, jobs=2, store=ResultStore(tmp_path / "s"))
    assert campaign.ok and campaign.summary.completed == 4
    assert not (tmp_path / "s" / "traces").exists()
    assert not list((tmp_path / "s").rglob("*.npz"))


def test_summary_counts_only_its_own_campaign():
    """A second campaign in the same process reports its own cache work,
    not the first one's as well."""
    from repro.workloads.synthetic import clear_trace_cache

    runner.clear_snapshot_cache()
    clear_trace_cache()
    tdc = [BASE.with_(scheme="tdc", seed=s) for s in (1, 2)]
    run_campaign(tdc, jobs=1)
    before = runner.cache_stats()
    second = run_campaign([c.with_(scheme="nomad") for c in tdc], jobs=1)
    after = runner.cache_stats()
    summary = second.summary
    assert (summary.memo["hits"], summary.memo["misses"]) == (0, 2)
    assert (summary.snapshot["hits"], summary.snapshot["misses"]) == (1, 1)
    for section in ("memo", "snapshot", "trace"):
        got = getattr(summary, section)
        for k in ("hits", "misses", "evictions"):
            assert got[k] == after[section][k] - before[section][k], (section, k)
    # Gauges stay current values: both campaigns' builds are cached.
    assert summary.snapshot["size"] == 2


def test_config_listed_twice_in_one_task_simulates_once(monkeypatch):
    simulated = []
    real = runner.simulate

    def counting(cfg, **kwargs):
        simulated.append(cfg)
        return real(cfg, **kwargs)

    monkeypatch.setattr(runner, "simulate", counting)
    cfg = BASE.with_(scheme="nomad")
    campaign = run_campaign([cfg, cfg], jobs=1)  # one snapshot key: one task
    assert [r.status for r in campaign.records] == ["completed", "completed"]
    assert campaign.records[0].result == campaign.records[1].result
    assert simulated == [cfg]


def test_failed_run_does_not_abort_grid():
    configs = [BASE, BASE.with_(workload="nosuch"), BASE.with_(seed=2)]
    campaign = run_campaign(configs, jobs=1)
    assert [r.status for r in campaign.records] == \
        ["completed", "failed", "completed"]
    assert campaign.summary.failed == 1
    assert not campaign.ok
    assert campaign.failures()[0].error


def test_failed_run_in_parallel_mode(tmp_path):
    configs = [BASE, BASE.with_(workload="nosuch"), BASE.with_(seed=2)]
    campaign = run_campaign(configs, jobs=2)
    statuses = [r.status for r in campaign.records]
    assert statuses == ["completed", "failed", "completed"]
    assert campaign.records[1].attempts == 1  # deterministic error: no retry


class _LoggingFS(_RealFS):
    """Appends each store write's destination to a file, so writes from
    forked pool workers (which inherit the installed shim) count too."""

    def __init__(self, log):
        self.log = log

    def replace(self, src, dst):
        super().replace(src, dst)
        with open(self.log, "a") as fh:
            fh.write(f"{dst}\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_store_write_per_simulated_run(tmp_path, jobs):
    grid = GridSpec(schemes=("baseline", "nomad"), workloads=("sop",),
                    base=BASE, axes={"seed": (1, 2)})
    log = tmp_path / "writes.log"
    prev = install_fs(_LoggingFS(log))
    try:
        campaign = run_campaign(grid, jobs=jobs,
                                store=ResultStore(tmp_path / "store"))
    finally:
        install_fs(prev)
    assert campaign.summary.completed == 4
    writes = log.read_text().splitlines()
    assert len(writes) == 4 and len(set(writes)) == 4, writes
    # One lookup per config, in the prescan.
    assert campaign.summary.store["misses"] == 4


def test_summary_surfaces_memo_counters():
    campaign = run_campaign(GRID, jobs=1)
    assert campaign.summary.memo["misses"] >= 8
    assert "maxsize" in campaign.summary.memo


def test_as_matrix_raises_on_failure():
    campaign = run_campaign([BASE.with_(workload="nosuch")], jobs=1)
    with pytest.raises(CampaignError, match="failed"):
        campaign.as_matrix()


def test_as_matrix_raises_on_duplicate_keys():
    campaign = run_campaign(GRID, jobs=1)  # seeds axis duplicates (s, wl)
    with pytest.raises(CampaignError, match="multiple runs"):
        campaign.as_matrix()


def test_run_matrix_routes_through_campaign():
    out = run_matrix(["baseline", "ideal"], ["sop"], BASE)
    assert set(out) == {("baseline", "sop"), ("ideal", "sop")}


def test_run_matrix_parallel_matches_serial():
    serial = run_matrix(["baseline", "nomad"], ["sop", "cc"], BASE)
    clear_cache()
    parallel = run_matrix(["baseline", "nomad"], ["sop", "cc"], BASE, jobs=4)
    assert set(serial) == set(parallel)
    for key in serial:
        assert serial[key] == parallel[key]


def test_explicit_store_not_left_installed(tmp_path):
    run_campaign([BASE], jobs=1, store=ResultStore(tmp_path))
    assert runner.get_result_store() is None


def test_telemetry_campaign_attaches_summaries_serial():
    configs = [BASE.with_(scheme="tdc"), BASE.with_(scheme="nomad")]
    campaign = run_campaign(configs, jobs=1, telemetry=True)
    assert campaign.ok
    for rec in campaign.records:
        assert rec.telemetry is not None
        assert "overlap_fraction" in rec.telemetry
        assert rec.telemetry["scheme"] == rec.config.scheme
        assert rec.to_dict()["telemetry"] == rec.telemetry
    # The result itself stays telemetry-free (out-of-band transport).
    assert "__telemetry__" not in campaign.records[0].result.to_dict()


def test_telemetry_campaign_parallel_matches_serial_results():
    configs = [BASE, BASE.with_(seed=2)]
    serial = run_campaign(configs, jobs=1, telemetry=True)
    clear_cache()
    parallel = run_campaign(configs, jobs=2, telemetry=True)
    for s_rec, p_rec in zip(serial.records, parallel.records):
        assert s_rec.result == p_rec.result
        assert p_rec.telemetry is not None
        assert p_rec.telemetry["events"] == s_rec.telemetry["events"]


def test_telemetry_runs_bypass_cache_lookup_but_prime_it():
    first = run_campaign([BASE], jobs=1)
    assert first.summary.completed == 1
    # A cached result has no trace: the observed campaign re-simulates.
    observed = run_campaign([BASE], jobs=1, telemetry=True)
    assert observed.summary.completed == 1
    assert observed.summary.cached == 0
    assert observed.records[0].telemetry is not None
    assert observed.records[0].result == first.records[0].result


def test_progress_callable_sees_every_completion():
    events = []
    campaign = run_campaign(
        [BASE, BASE.with_(seed=2)], jobs=1,
        progress=lambda kind, info: events.append((kind, dict(info))),
    )
    assert campaign.ok
    done = [info for kind, info in events if kind == "done"]
    assert done
    assert done[-1]["completed"] == 2
    assert done[-1]["total"] == 2
