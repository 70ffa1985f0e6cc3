"""End-to-end service tests: broker HTTP server + runner loops.

Runners execute as threads in this process (``run_campaign`` with
``jobs=1`` stays in-process), which keeps these fast while still going
through the real HTTP protocol, lease machinery, and store ingestion.
The CI ``service-smoke`` job covers the subprocess-runner path.
"""

import threading

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.harness.runner import RunConfig, clear_cache
from repro.service.broker import Broker, BrokerServer
from repro.service.coordinator import run_distributed_campaign
from repro.service.protocol import BrokerClient, BrokerError, batch_id_for
from repro.service.runner import runner_loop

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
GRID = [BASE.with_(seed=s) for s in (1, 2, 3, 4)]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def _start_runners(url, count=2, **kwargs):
    kwargs.setdefault("poll_s", 0.05)
    kwargs.setdefault("exit_when_idle", 1.0)
    threads = [
        threading.Thread(
            target=runner_loop, args=(url,),
            kwargs={"runner_id": f"t{i}", **kwargs}, daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    return threads


def test_distributed_campaign_matches_serial_bitwise(tmp_path):
    serial_store = ResultStore(tmp_path / "serial")
    serial = run_campaign(GRID, jobs=1, store=serial_store, progress=False)
    assert serial.ok
    clear_cache()  # the distributed path must simulate, not hit the memo

    store = ResultStore(tmp_path / "dist")
    broker = Broker(store.root, lease_s=30.0)
    with BrokerServer(broker) as server:
        threads = _start_runners(server.url, count=2)
        campaign = run_distributed_campaign(
            GRID, server.url, store, jobs=2, max_wait_s=120.0,
            progress=False,
        )
        for t in threads:
            t.join(timeout=30)
    assert campaign.ok
    assert len(campaign.records) == len(GRID)
    # Same configs, same results, bit-for-bit.
    for ser, dist in zip(serial.records, campaign.records):
        assert dist.config == ser.config
        assert dist.result.to_dict() == ser.result.to_dict()
    # And the store files agree too (the acceptance bar for CI).
    serial_entries = dict(serial_store.iter_entries())
    dist_entries = dict(store.iter_entries())
    assert serial_entries.keys() == dist_entries.keys()
    for key in serial_entries:
        assert serial_entries[key]["result"] == dist_entries[key]["result"]


def test_dead_runner_lease_requeue_converges_without_duplicates(tmp_path):
    store = ResultStore(tmp_path / "store")
    broker = Broker(store.root, lease_s=1.0)  # short lease: fast requeue
    with BrokerServer(broker) as server:
        cid = "kill-test"
        payloads = [c.to_dict() for c in GRID[:2]]
        client = BrokerClient(server.url)
        client.enqueue(cid, [{
            "batch_id": batch_id_for(cid, payloads),
            "indices": [0, 1],
            "configs": payloads,
        }], {}, manifest=payloads)

        # A runner claims the batch and dies (never completes, never
        # heartbeats) -- the lease must expire and a live runner must
        # pick the batch up and finish the campaign.
        dead = client.claim("r-dead")["batches"]
        assert len(dead) == 1

        threads = _start_runners(server.url, count=1, exit_when_idle=3.0)
        deadline = 60.0
        import time
        t0 = time.monotonic()
        while time.monotonic() - t0 < deadline:
            status = client.status(cid)["campaigns"][cid]
            if status["done"] == status["batches"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("requeued batch never completed")
        for t in threads:
            t.join(timeout=30)

        status = client.status(cid)["campaigns"][cid]
        records = client.records(cid)
    # Zero lost, zero duplicated.
    assert status["runs_done"] == 2
    assert sorted(r["index"] for r in records) == [0, 1]
    assert broker.requeues >= 1
    assert all(r["status"] in ("completed", "cached") for r in records)
    assert len(store) == 2


def test_resume_after_broker_restart_runs_only_missing(tmp_path):
    store = ResultStore(tmp_path / "store")
    cid = "resume-test"

    broker = Broker(store.root, lease_s=30.0)
    with BrokerServer(broker) as server:
        threads = _start_runners(server.url, count=2)
        first = run_distributed_campaign(
            GRID, server.url, store, campaign_id=cid, jobs=2,
            max_wait_s=120.0, progress=False,
        )
        for t in threads:
            t.join(timeout=30)
    assert first.ok and len(store) == len(GRID)

    # Lose two results (e.g. a partial store copy); the broker process
    # is gone -- a fresh one only has the persisted manifest + store.
    removed = 0
    for cfg in GRID[:2]:
        store.path_for(cfg).unlink()
        removed += 1
    clear_cache()

    broker2 = Broker(store.root, lease_s=30.0)
    with BrokerServer(broker2) as server:
        threads = _start_runners(server.url, count=2)
        resumed = run_distributed_campaign(
            None, server.url, store, campaign_id=cid, resume=True,
            jobs=2, max_wait_s=120.0, progress=False,
        )
        for t in threads:
            t.join(timeout=30)
    assert resumed.ok
    assert len(resumed.records) == len(GRID)
    # Only the missing configs were re-enqueued and re-simulated.
    re_run = [r for r in resumed.records if r.status == "completed"]
    from_store = [r for r in resumed.records if r.source == "store"]
    assert len(re_run) == removed
    assert len(from_store) == len(GRID) - removed
    assert len(store) == len(GRID)


def test_resume_with_nothing_pending_never_needs_runners(tmp_path):
    store = ResultStore(tmp_path / "store")
    cid = "noop-resume"
    broker = Broker(store.root)
    with BrokerServer(broker) as server:
        threads = _start_runners(server.url, count=1)
        run_distributed_campaign(
            GRID[:2], server.url, store, campaign_id=cid, jobs=1,
            max_wait_s=120.0, progress=False,
        )
        for t in threads:
            t.join(timeout=30)

    # Fresh broker, no runners at all: everything resolves by prescan.
    # (Drop the in-process memo so the hits provably come from disk.)
    clear_cache()
    broker2 = Broker(store.root)
    with BrokerServer(broker2) as server:
        resumed = run_distributed_campaign(
            None, server.url, store, campaign_id=cid, resume=True,
            max_wait_s=10.0, progress=False,
        )
    assert resumed.ok
    assert all(r.source == "store" for r in resumed.records)


def test_lease_renewed_by_timer_during_long_run(monkeypatch):
    # Progress events only fire when a run completes; a single run
    # longer than the lease must still heartbeat (else the broker
    # requeues the batch and another runner re-executes it).
    import time

    import repro.service.runner as runner_mod

    class StubClient:
        def __init__(self):
            self.heartbeats = []
            self.completed = []
            self.claims = 0

        def claim(self, rid, max_batches=1):
            self.claims += 1
            batches = [] if self.claims > 1 else [{
                "campaign_id": "c1", "batch_id": "b1",
                "indices": [0], "configs": [BASE.to_dict()],
                "meta": {}, "attempt": 1,
            }]
            return {"batches": batches, "lease_s": 0.3}

        def heartbeat(self, rid, payload, retry=False):
            self.heartbeats.append(payload)
            return {"renewed": 1}

        def complete(self, rid, cid, bid, items, cache_stats=None):
            self.completed.append(bid)
            return {"accepted": True}

    def slow_execute(batch, jobs=1, on_event=None):
        time.sleep(1.0)  # several lease periods, zero progress events
        return [], {}

    monkeypatch.setattr(runner_mod, "execute_batch", slow_execute)
    stub = StubClient()
    done = runner_loop("ignored", client=stub, max_batches=1)
    assert done == 1 and stub.completed == ["b1"]
    # lease_s=0.3 -> renewal every 0.1s; a 1s run must land several.
    assert len(stub.heartbeats) >= 2


def test_coordinator_enqueues_the_config_of_a_guard():
    from repro.guard import Guard, GuardConfig

    cfg = GuardConfig(check_interval=123, chaos="leak_mshr",
                      chaos_scheme="nomad")

    class StubClient:
        meta = None

        def probe(self):
            return {}

        def enqueue(self, cid, batches, meta, manifest=None):
            self.meta = meta
            return {}

        def status(self, cid):
            return {"campaigns": {cid: {"done": 1, "batches": 1}}}

        def records(self, cid):
            return []

    stub = StubClient()
    run_distributed_campaign([BASE], "ignored", store=None,
                             guard=Guard(cfg), client=stub)
    assert stub.meta["guard"] == cfg.to_dict()


def test_batch_meta_trace_dir_is_ignored(tmp_path):
    # A broker replaying a journal written when batches named a shared
    # trace directory still hands that meta key to its runners: they run
    # the batch and write nothing there.
    from repro.service.runner import execute_batch
    from repro.workloads.synthetic import clear_trace_cache, trace_cache_stats

    clear_trace_cache()  # so the batch generates its traces
    before = trace_cache_stats()
    trace_dir = tmp_path / "traces"
    payloads = [GRID[0].to_dict()]
    items, counts = execute_batch({
        "batch_id": batch_id_for("t", payloads),
        "campaign_id": "t",
        "indices": [0],
        "configs": payloads,
        "meta": {"trace_dir": str(trace_dir)},
    })
    assert len(items) == 1 and items[0]["status"] == "completed"
    assert not trace_dir.exists()
    after = trace_cache_stats()
    assert after.keys() == before.keys()
    assert (after["maxsize"], after["disk_hits"]) == (before["maxsize"], 0)
    assert counts["trace"]["misses"] == after["misses"] - before["misses"]


def _drain(store, configs):
    """A distributed campaign through an in-process broker and one
    runner thread."""
    broker = Broker(store.root, lease_s=30.0)
    with BrokerServer(broker) as server:
        threads = _start_runners(server.url, count=1)
        campaign = run_distributed_campaign(
            configs, server.url, store, jobs=1, max_wait_s=120.0,
            progress=False,
        )
        for t in threads:
            t.join(timeout=30)
    assert campaign.ok
    assert not any(t.is_alive() for t in threads)
    return campaign


def test_distributed_campaign_stores_no_traces(tmp_path):
    store = ResultStore(tmp_path / "store")
    _drain(store, GRID)
    assert len(store) == len(GRID)
    assert not (tmp_path / "store" / "traces").exists()
    assert not list((tmp_path / "store").rglob("*.npz"))


def test_distributed_summary_counts_runner_work_once(tmp_path):
    # The runner thread shares this process's caches, so the process's
    # counters moved by exactly the campaign's work; the summary must
    # report that once, not once from the broker and again locally.
    from repro.harness.runner import cache_counts, clear_snapshot_cache
    from repro.workloads.synthetic import clear_trace_cache

    clear_snapshot_cache()
    clear_trace_cache()
    configs = [BASE.with_(scheme="nomad", seed=s) for s in (1, 2, 3, 4)]
    campaign = _drain(ResultStore(tmp_path / "store"), configs)
    summary, done = campaign.summary, cache_counts()
    # One build forked three times; two cores' traces per seed.
    assert (summary.snapshot["misses"], summary.snapshot["hits"]) == (1, 3)
    assert summary.trace["misses"] == 8
    assert summary.cache_counts() == done
    # The coordinator's memo work is its prescan: one miss per config.
    assert (summary.memo["hits"], summary.memo["misses"]) == (0, 4)


def test_runner_threads_each_report_only_their_own_cache_work(
        tmp_path, monkeypatch):
    # Two runner threads share this process's caches and run their
    # batches at the same time (the barrier holds each until both have
    # claimed one).  What each reports must be its own work, so the
    # reports add up to how far the process totals moved.
    from repro.harness.runner import (
        cache_counts, cache_delta, clear_snapshot_cache,
    )
    from repro.service import runner as service_runner
    from repro.workloads.synthetic import clear_trace_cache

    barrier = threading.Barrier(2, timeout=30)
    execute = service_runner.execute_batch

    def together(*args, **kwargs):
        barrier.wait()
        return execute(*args, **kwargs)

    monkeypatch.setattr(service_runner, "execute_batch", together)
    clear_snapshot_cache()
    clear_trace_cache()
    configs = [BASE.with_(scheme=scheme, seed=s)
               for scheme in ("tdc", "nomad") for s in (1, 2, 3, 4)]
    before = cache_counts()
    store = ResultStore(tmp_path / "store")
    with BrokerServer(Broker(store.root, lease_s=30.0)) as server:
        threads = _start_runners(server.url, count=2)
        campaign = run_distributed_campaign(
            configs, server.url, store, jobs=2, max_wait_s=120.0,
            progress=False,
        )
        for t in threads:
            t.join(timeout=30)
    assert campaign.ok
    assert not any(t.is_alive() for t in threads)
    moved = cache_delta(before, cache_counts())
    # Two batches of one scheme each: a build and three forks apiece.
    assert (moved["snapshot"]["misses"], moved["snapshot"]["hits"]) == (2, 6)
    assert moved["trace"]["hits"] + moved["trace"]["misses"] == 16
    assert campaign.summary.cache_counts() == moved


def test_resume_unknown_campaign_fails_loudly(tmp_path):
    store = ResultStore(tmp_path / "store")
    broker = Broker(store.root)
    with BrokerServer(broker) as server:
        with pytest.raises(BrokerError, match="unknown campaign"):
            run_distributed_campaign(
                None, server.url, store, campaign_id="ghost", resume=True,
            )
