"""Campaigns snapshot a build only when a later run can fork it.

A snapshot dump costs time and leaves the dumped machine on CPython's
slow attribute path, so a campaign dumps a fresh build only when a
later run of the same task can fork it (tasks group a key's configs; at
``jobs=1`` one task holds all of them), in this process and in a pool
alike.  Either way the results equal a campaign that never forks.
"""

import pytest

from repro.campaign import run_campaign
from repro.harness import runner
from repro.harness.runner import RunConfig

BASE = RunConfig(scheme="nomad", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
# Six snapshot keys, one config each (baseline never snapshots).
DISTINCT = [BASE.with_(scheme=s, workload=w)
            for s in ("nomad", "tdc", "tid") for w in ("sop", "cact")]
DISTINCT.append(BASE.with_(scheme="baseline"))
# Seeds axes: (configs, snapshot keys).  The second grid plans one
# three-run pool task, not a pair plus a lone run that could not fork.
SEEDS = {
    "two-keys": ([BASE.with_(scheme=s, seed=k) for s in ("nomad", "tdc")
                  for k in (1, 2, 3)], 2),
    "one-key-odd": ([BASE.with_(seed=k) for k in (1, 2, 3)]
                    + [BASE.with_(scheme="baseline")], 1),
}


def _cold():
    runner.clear_cache()
    runner.clear_snapshot_cache()


@pytest.fixture(autouse=True)
def _fresh_caches():
    _cold()
    prev = runner.set_result_store(None)
    yield
    runner.set_result_store(prev)
    _cold()


def _results(campaign):
    assert campaign.ok
    return [r.result.to_dict() for r in campaign.records]


def _never_forking(configs):
    _cold()
    prev = runner.configure_snapshots(0)
    try:
        return _results(run_campaign(configs, jobs=1))
    finally:
        runner.configure_snapshots(prev)


@pytest.mark.parametrize("jobs", [1, 2])
def test_distinct_keys_store_no_images(jobs):
    campaign = run_campaign(DISTINCT, jobs=jobs)
    snap = campaign.summary.snapshot
    assert snap["stores"] == 0
    assert snap["hits"] == 0
    assert _results(campaign) == _never_forking(DISTINCT)


@pytest.mark.parametrize("grid", list(SEEDS))
@pytest.mark.parametrize("jobs", [1, 2])
def test_seed_axis_stores_one_image_per_key_and_forks_the_rest(jobs, grid):
    configs, keys = SEEDS[grid]
    eligible = sum(c.scheme != "baseline" for c in configs)
    campaign = run_campaign(configs, jobs=jobs)
    snap = campaign.summary.snapshot
    assert snap["stores"] == keys
    assert snap["hits"] == eligible - keys
    assert _results(campaign) == _never_forking(configs)


def test_direct_run_workload_still_primes_on_build():
    runner.run_workload(BASE)
    assert runner.cache_stats()["snapshot"]["stores"] == 1
