"""Broker queue semantics: leases, requeue, dedup, journaled manifests.

Pure :class:`Broker` unit tests with an injectable clock -- no sockets.
"""

import pytest

from repro.campaign import ResultStore
from repro.harness.runner import RunConfig, run_workload
from repro.service.broker import Broker
from repro.service.protocol import BrokerError, batch_id_for

CFG = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                num_cores=2, dc_megabytes=8)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


def _batches(cid, configs, per_batch=2):
    out = []
    for start in range(0, len(configs), per_batch):
        chunk = configs[start:start + per_batch]
        payloads = [c.to_dict() for c in chunk]
        out.append({
            "batch_id": batch_id_for(cid, payloads),
            "indices": list(range(start, start + len(chunk))),
            "configs": payloads,
        })
    return out


def _item(cfg, index, status="completed", result=None, **extra):
    item = {"index": index, "config": cfg.to_dict(), "status": status,
            "result": result}
    item.update(extra)
    return item


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(tmp_path, clock):
    return Broker(tmp_path / "store", lease_s=30.0, clock=clock)


def test_enqueue_claim_complete_ingests_into_store(broker, clock):
    configs = [CFG, CFG.with_(seed=2)]
    answer = broker.enqueue("c1", _batches("c1", configs), {"retries": 1},
                            manifest=[c.to_dict() for c in configs])
    assert answer == {"accepted": 1, "skipped": 0, "batches": 1}

    grant = broker.claim("r1")
    assert len(grant["batches"]) == 1
    batch = grant["batches"][0]
    assert batch["meta"]["retries"] == 1
    assert batch["attempt"] == 1

    res = run_workload(CFG)
    items = [_item(c, i, result=res.to_dict())
             for i, c in enumerate(configs)]
    answer = broker.complete("r1", "c1", batch["batch_id"], items)
    assert answer == {"accepted": True}

    # Records land in the store and the index, keyed like any campaign.
    assert broker.store.get(CFG) == res
    assert broker.index.count(status=["ok"]) == 2
    status = broker.status("c1")["campaigns"]["c1"]
    assert status["done"] == 1 and status["queued"] == 0
    assert status["runs_done"] == 2
    assert broker.records("c1")[0]["index"] == 0


def test_enqueue_is_idempotent(broker):
    batches = _batches("c1", [CFG, CFG.with_(seed=2)])
    broker.enqueue("c1", batches, {})
    answer = broker.enqueue("c1", batches, {})
    assert answer == {"accepted": 0, "skipped": 1, "batches": 1}
    # Still only one claimable batch.
    assert len(broker.claim("r1", max_batches=5)["batches"]) == 1


def test_expired_lease_requeues_and_late_complete_is_dropped(broker, clock):
    configs = [CFG]
    broker.enqueue("c1", _batches("c1", configs), {})
    batch = broker.claim("r-dying")["batches"][0]

    # Within the lease nothing is claimable by others.
    assert broker.claim("r2")["batches"] == []
    clock.advance(31.0)  # lease_s=30 expires
    regrant = broker.claim("r2")["batches"]
    assert len(regrant) == 1
    assert regrant[0]["batch_id"] == batch["batch_id"]
    assert regrant[0]["attempt"] == 2
    assert broker.status()["requeues"] == 1

    res = run_workload(CFG)
    items = [_item(CFG, 0, result=res.to_dict())]
    assert broker.complete("r2", "c1", batch["batch_id"], items) == {
        "accepted": True
    }
    # The original runner finishing late must not double-ingest.
    answer = broker.complete("r-dying", "c1", batch["batch_id"], items)
    assert answer["accepted"] is False
    campaign = broker.status("c1")["campaigns"]["c1"]
    assert campaign["runs_done"] == 1
    assert campaign["duplicate_completes"] == 1
    assert len(broker.records("c1")) == 1


def test_complete_ingests_records_before_batch_counts_done(broker, clock):
    # The coordinator breaks its drain loop on done == batches and
    # immediately fetches /records: a batch must never count done while
    # its items are still mid-ingestion, however slow the store is.
    configs = [CFG, CFG.with_(seed=2)]
    broker.enqueue("c1", _batches("c1", configs), {})
    batch = broker.claim("r1")["batches"][0]
    res = run_workload(CFG)
    items = [_item(c, i, result=res.to_dict())
             for i, c in enumerate(configs)]

    observed = []
    orig_put = broker.store.put

    def slow_put(cfg, result):
        # What a polling coordinator sees while this item lands.
        status = broker.status("c1")["campaigns"]["c1"]
        observed.append(status["done"])
        # The lease must survive an arbitrarily slow ingest...
        clock.advance(1000.0)
        assert broker.claim("r-thief")["batches"] == []
        # ...and a duplicate /complete racing it is dropped.
        answer = broker.complete("r-thief", "c1", batch["batch_id"], items)
        assert answer["accepted"] is False
        return orig_put(cfg, result)

    broker.store.put = slow_put
    answer = broker.complete("r1", "c1", batch["batch_id"], items)
    assert answer == {"accepted": True}
    assert observed == [0, 0]  # never done before records were visible
    status = broker.status("c1")["campaigns"]["c1"]
    assert status["done"] == 1 and status["runs_done"] == 2
    assert len(broker.records("c1")) == 2
    assert broker.status()["requeues"] == 0


def test_failed_ingest_leaves_batch_leased_for_requeue(broker, clock):
    broker.enqueue("c1", _batches("c1", [CFG]), {})
    batch = broker.claim("r1")["batches"][0]
    res = run_workload(CFG)
    items = [_item(CFG, 0, result=res.to_dict())]

    def broken_put(cfg, result):
        raise OSError("disk full")

    orig_put = broker.store.put
    broker.store.put = broken_put
    with pytest.raises(OSError):
        broker.complete("r1", "c1", batch["batch_id"], items)
    # Not done, but not stuck either: the lease expires, the batch
    # requeues, and a healthy completion converges.
    assert broker.status("c1")["campaigns"]["c1"]["done"] == 0
    broker.store.put = orig_put
    clock.advance(31.0)
    regrant = broker.claim("r2")["batches"]
    assert len(regrant) == 1
    assert broker.complete(
        "r2", "c1", batch["batch_id"], items
    )["accepted"] is True
    assert broker.status("c1")["campaigns"]["c1"]["done"] == 1


def test_heartbeats_own_runner_cache_stats(broker, clock):
    broker.enqueue("c1", _batches("c1", [CFG]), {})
    batch = broker.claim("r1")["batches"][0]
    # A heartbeat carries the runner process's *cumulative* counters.
    broker.heartbeat(
        "r1", {"cache": {"snapshot": {"hits": 10, "misses": 2}}}
    )
    res = run_workload(CFG)
    broker.complete(
        "r1", "c1", batch["batch_id"],
        [_item(CFG, 0, result=res.to_dict())],
        cache_stats={"snapshot": {"hits": 3, "misses": 1}},
    )
    status = broker.status()
    # The per-batch delta lands in the campaign totals...
    assert status["campaigns"]["c1"]["cache_counts"]["snapshot"]["hits"] == 3
    # ...but is not merged on top of the cumulative heartbeat numbers
    # (10 + 3 would double-count the runner's hit rate).
    assert status["runners"]["r1"]["stats"]["cache"]["snapshot"] == {
        "hits": 10, "misses": 2,
    }


def test_heartbeat_renews_leases(broker, clock):
    broker.enqueue("c1", _batches("c1", [CFG]), {})
    broker.claim("r1")
    clock.advance(25.0)
    assert broker.heartbeat("r1", {"completed": 0})["renewed"] == 1
    clock.advance(25.0)  # 50s since claim, 25s since renewal
    assert broker.claim("r2")["batches"] == []  # still leased to r1


def test_quarantined_item_pins_and_failed_item_does_not(broker):
    configs = [CFG, CFG.with_(seed=2)]
    broker.enqueue("c1", _batches("c1", configs), {})
    batch = broker.claim("r1")["batches"][0]
    items = [
        _item(configs[0], 0, status="quarantined",
              failure_kind="crash", error="boom"),
        _item(configs[1], 1, status="failed",
              failure_kind="crash", error="flaky"),
    ]
    broker.complete("r1", "c1", batch["batch_id"], items)
    # Deterministic failure: pinned in the store quarantine.
    assert broker.store.get_failure(configs[0])["error"] == "boom"
    assert broker.index.count(status=["quarantined"]) == 1
    # Transient failure: indexed for `repro results --failed`, not pinned,
    # so a resume prescan re-runs it.
    assert broker.store.get_failure(configs[1]) is None
    assert broker.index.count(status=["failed"]) == 1


def test_manifest_persists_across_broker_instances(broker, tmp_path, clock):
    configs = [CFG, CFG.with_(seed=2)]
    broker.enqueue("c1", _batches("c1", configs), {"retries": 2},
                   manifest=[c.to_dict() for c in configs])
    broker.journal.close()
    reborn = Broker(tmp_path / "store", clock=clock)
    manifest = reborn.manifest("c1")
    assert manifest["campaign_id"] == "c1"
    assert [RunConfig.from_dict(c) for c in manifest["configs"]] == configs
    assert list(reborn.status()["campaigns"]) == ["c1"]
    # The run options come back with the journaled batches.
    assert reborn.claim("r1")["batches"][0]["meta"]["retries"] == 2
    # The journal is the only durable campaign record.
    assert not (tmp_path / "store" / "service" / "campaigns").exists()
    reborn.journal.close()


def test_manifest_is_journaled_only_when_the_config_list_changes(broker):
    configs = [CFG, CFG.with_(seed=2)]
    payloads = [c.to_dict() for c in configs]
    broker.enqueue("c1", _batches("c1", configs), {}, manifest=payloads)
    broker.enqueue("c1", _batches("c1", configs), {}, manifest=payloads)
    grown = payloads + [CFG.with_(seed=3).to_dict()]
    broker.enqueue("c1", [], {}, manifest=grown)
    ops = [e["op"] for e in broker.journal.replay("c1")["c1"]]
    assert ops == ["manifest", "enqueue", "manifest"]
    assert broker.manifest("c1")["configs"] == grown


def test_unknown_campaign_and_batch_errors(broker):
    with pytest.raises(BrokerError, match="unknown campaign"):
        broker.manifest("nope")
    with pytest.raises(BrokerError, match="unknown campaign"):
        broker.complete("r1", "nope", "b1", [])
    with pytest.raises(BrokerError, match="unknown campaign"):
        broker.records("nope")
    broker.enqueue("c1", [], {})
    with pytest.raises(BrokerError, match="no journaled manifest"):
        broker.manifest("c1")
    with pytest.raises(BrokerError, match="unknown batch"):
        broker.complete("r1", "c1", "b1", [])
    with pytest.raises(BrokerError, match="campaign_id"):
        broker.enqueue("", [], {})
    with pytest.raises(BrokerError, match="runner_id"):
        broker.claim("")


def test_complete_rejects_items_that_miss_the_batch_slots(broker):
    configs = [CFG, CFG.with_(seed=2)]
    broker.enqueue("c1", _batches("c1", configs), {})
    bid = broker.claim("r1")["batches"][0]["batch_id"]
    res = run_workload(CFG).to_dict()
    good = [_item(c, i, result=res) for i, c in enumerate(configs)]
    no_index = dict(good[1])
    del no_index["index"]
    for items in (
        [good[0], no_index],                         # no index at all
        [good[0], dict(good[1], index="1")],         # not an int
        [good[0], _item(configs[1], 7, result=res)],  # not this batch's
        [good[0], dict(good[1], index=0)],           # a slot filled twice
    ):
        with pytest.raises(BrokerError, match="not distinct slots"):
            broker.complete("r1", "c1", bid, items)
    # Rejected before anything was stored or journaled; still leased.
    assert len(broker.store) == 0
    assert broker.index.count() == 0
    ops = [e["op"] for e in broker.journal.replay("c1")["c1"]]
    assert ops == ["enqueue", "lease"]
    status = broker.status("c1")["campaigns"]["c1"]
    assert status["leased"] == 1 and status["runs_done"] == 0
    assert broker.complete("r1", "c1", bid, good) == {"accepted": True}
    assert [r["index"] for r in broker.records("c1")] == [0, 1]
    assert broker.status("c1")["campaigns"]["c1"]["runs_done"] == 2


def test_mismatched_batch_shape_rejected(broker):
    with pytest.raises(BrokerError, match="indices"):
        broker.enqueue("c1", [{
            "batch_id": "b1", "indices": [0, 1],
            "configs": [CFG.to_dict()],
        }], {})


def test_claim_prefers_oldest_campaign(broker, clock):
    broker.enqueue("new-but-first", _batches("new-but-first", [CFG]), {})
    clock.advance(5.0)
    broker.enqueue("second", _batches("second", [CFG.with_(seed=2)]), {})
    grant = broker.claim("r1", max_batches=1)["batches"]
    assert grant[0]["campaign_id"] == "new-but-first"


def test_status_reports_runner_throughput_and_cache_counts(broker, clock):
    broker.enqueue("c1", _batches("c1", [CFG]), {})
    batch = broker.claim("r1")["batches"][0]
    clock.advance(10.0)
    res = run_workload(CFG)
    broker.complete(
        "r1", "c1", batch["batch_id"],
        [_item(CFG, 0, result=res.to_dict(),
               telemetry={"overlap_fraction": 0.75})],
        cache_stats={"snapshot": {"hits": 3, "misses": 1}},
    )
    status = broker.status()
    runner = status["runners"]["r1"]
    assert runner["runs_done"] == 1
    assert runner["runs_per_sec"] == pytest.approx(0.1)
    campaign = status["campaigns"]["c1"]
    assert campaign["cache_counts"]["snapshot"]["hits"] == 3
