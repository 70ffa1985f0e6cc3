"""Journal append/replay semantics + broker crash recovery from disk.

The journal is the broker's crash-consistency story: every campaign
manifest and batch state transition is fsynced to an append-only JSONL
before the broker commits it in memory, and a restarted broker rebuilds
manifests, queue position, leases, and done-counts from the journal
alone -- no coordinator prescan.
"""

import json

from repro.harness.runner import RunConfig
from repro.service.broker import Broker
from repro.service.journal import Journal, _crc, slim_item
from repro.service.protocol import batch_id_for

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
GRID = [BASE.with_(seed=s) for s in (1, 2, 3, 4)]


def _payloads(configs):
    return [c.to_dict() for c in configs]


def _enqueue(broker, cid, configs, start_index=0):
    payloads = _payloads(configs)
    bid = batch_id_for(cid, payloads)
    broker.enqueue(cid, [{
        "batch_id": bid,
        "indices": list(range(start_index, start_index + len(payloads))),
        "configs": payloads,
    }], {}, manifest=payloads)
    return bid


def test_append_and_replay_round_trip(tmp_path):
    j = Journal(tmp_path)
    j.append("c1", "enqueue", batch_id="b1", indices=[0], configs=[{}])
    j.append("c1", "lease", batch_id="b1", runner_id="r1", attempt=1)
    j.append("c2", "enqueue", batch_id="b9", indices=[3], configs=[{}])
    j.close()

    fresh = Journal(tmp_path)
    replayed = fresh.replay()
    assert set(replayed) == {"c1", "c2"}
    assert [e["op"] for e in replayed["c1"]] == ["enqueue", "lease"]
    assert replayed["c1"][1]["runner_id"] == "r1"
    assert fresh.corrupt_lines == 0


def test_replay_skips_torn_tail_line(tmp_path):
    j = Journal(tmp_path)
    j.append("c1", "enqueue", batch_id="b1", indices=[0], configs=[{}])
    j.append("c1", "complete", batch_id="b1", runner_id="r", items=[])
    j.close()
    # The classic crash shape: power died mid-append, leaving a torn
    # final line.  Everything before it must replay intact.
    path = j.path_for("c1")
    with open(path, "ab") as fh:
        fh.write(b'{"op": "requeue", "batch_id": "b1", "cr')

    fresh = Journal(tmp_path)
    replayed = fresh.replay("c1")
    assert [e["op"] for e in replayed["c1"]] == ["enqueue", "complete"]
    assert fresh.corrupt_lines == 1


def test_replay_rejects_crc_mismatch(tmp_path):
    j = Journal(tmp_path)
    j.append("c1", "enqueue", batch_id="b1", indices=[0], configs=[{}])
    j.append("c1", "lease", batch_id="b1", runner_id="r1", attempt=1)
    j.close()
    path = j.path_for("c1")
    lines = path.read_bytes().splitlines()
    # Flip a byte inside the second entry's payload: it still parses as
    # JSON but the CRC no longer matches -- a silent bit flip.
    doctored = json.loads(lines[1])
    doctored["runner_id"] = "rX"  # content changed, crc stale
    lines[1] = json.dumps(doctored, sort_keys=True,
                          separators=(",", ":")).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")

    fresh = Journal(tmp_path)
    replayed = fresh.replay("c1")
    assert [e["op"] for e in replayed["c1"]] == ["enqueue"]
    assert fresh.corrupt_lines == 1


def test_crc_covers_everything_but_itself(tmp_path):
    entry = {"op": "lease", "batch_id": "b", "crc": 0}
    base = _crc(entry)
    assert _crc({**entry, "crc": 12345}) == base  # crc field excluded
    assert _crc({**entry, "batch_id": "c"}) != base


def test_slim_item_drops_bulky_fields():
    item = {"index": 3, "status": "completed", "config": {"seed": 1},
            "result": {"big": [1] * 100}, "telemetry": {"x": 1},
            "traceback": "...", "error": ""}
    slim = slim_item(item)
    assert slim == {"index": 3, "status": "completed",
                    "config": {"seed": 1}, "error": ""}


def test_broker_journals_full_lifecycle(tmp_path):
    cid = "life"
    broker = Broker(tmp_path, lease_s=30.0)
    bid = _enqueue(broker, cid, GRID[:2])
    grant = broker.claim("r1")
    assert [b["batch_id"] for b in grant["batches"]] == [bid]
    items, _ = _run_batch(grant["batches"][0])
    broker.complete("r1", cid, bid, items)
    broker.journal.close()

    ops = [e["op"] for e in Journal(tmp_path).replay(cid)[cid]]
    assert ops == ["manifest", "enqueue", "lease", "complete"]


def test_restarted_broker_resumes_from_journal_alone(tmp_path):
    """Completed batches stay done, queued ones keep their place --
    and the records endpoint rehydrates results from the store."""
    cid = "restart"
    broker = Broker(tmp_path, lease_s=30.0)
    done_bid = _enqueue(broker, cid, GRID[:2])
    pending_bid = _enqueue(broker, cid, GRID[2:], start_index=2)
    grant = broker.claim("r1")
    assert grant["batches"][0]["batch_id"] == done_bid
    items, _ = _run_batch(grant["batches"][0])
    broker.complete("r1", cid, done_bid, items)
    broker.journal.close()

    # SIGKILL-equivalent: the broker object is discarded; the successor
    # sees only the disk.
    broker2 = Broker(tmp_path, lease_s=30.0)
    assert broker2.replayed_campaigns == 1
    status = broker2.status(cid)["campaigns"][cid]
    assert status["batches"] == 2
    assert status["done"] == 1
    # The leased-then-never-granted batch is back in the queue...
    grant2 = broker2.claim("r2")
    assert [b["batch_id"] for b in grant2["batches"]] == [pending_bid]
    # ...and the done batch is NOT re-executable (no re-grant).
    assert broker2.claim("r3")["batches"] == []
    # Slim journal records rehydrate from the content-addressed store.
    records = broker2.records(cid)
    done_items = [r for r in records if r.get("result")]
    assert sorted(r["index"] for r in done_items) == [0, 1]
    broker2.journal.close()


def test_restart_reissues_fresh_lease_for_leased_batch(tmp_path):
    cid = "lease-restart"
    broker = Broker(tmp_path, lease_s=5.0)
    bid = _enqueue(broker, cid, GRID[:1])
    broker.claim("r1")
    broker.journal.close()

    # Restart while the batch is leased: the runner may still be alive,
    # so the successor must honor the lease (fresh expiry) rather than
    # hand the batch to someone else immediately.
    broker2 = Broker(tmp_path, lease_s=5.0)
    status = broker2.status(cid)["campaigns"][cid]
    assert status["leased"] == 1
    assert broker2.claim("r2")["batches"] == []
    # The original runner's late complete still lands.
    items, _ = _run_batch({
        "indices": [0], "configs": _payloads(GRID[:1]),
    })
    answer = broker2.complete("r1", cid, bid, items)
    assert answer["accepted"] is True
    broker2.journal.close()


def test_reenqueue_after_lost_store_backing_reruns(tmp_path):
    """A DONE batch whose store files vanished must run again when the
    coordinator resubmits it -- the journal must not pin the loss."""
    cid = "lost-backing"
    broker = Broker(tmp_path, lease_s=30.0)
    bid = _enqueue(broker, cid, GRID[:2])
    grant = broker.claim("r1")
    items, _ = _run_batch(grant["batches"][0])
    broker.complete("r1", cid, bid, items)
    broker.store.path_for(GRID[0]).unlink()  # partial store copy
    broker.journal.close()

    broker2 = Broker(tmp_path, lease_s=30.0)
    resubmit = broker2.enqueue(cid, [{
        "batch_id": bid,
        "indices": [0, 1],
        "configs": _payloads(GRID[:2]),
    }], {"retries": 3})
    assert resubmit["accepted"] == 1
    grant2 = broker2.claim("r2")
    assert [b["batch_id"] for b in grant2["batches"]] == [bid]
    # The re-run goes out under the resubmission's run options.
    assert grant2["batches"][0]["meta"]["retries"] == 3
    broker2.journal.close()
    # And the reenqueue itself is journaled, run options included: a
    # crash right here still replays to a runnable batch.
    broker3 = Broker(tmp_path, lease_s=30.0)
    status = broker3.status(cid)["campaigns"][cid]
    assert status["done"] == 0 and status["leased"] == 1
    assert broker3._campaigns[cid].meta["retries"] == 3
    broker3.journal.close()


def test_backed_done_batch_resubmission_is_deduped(tmp_path):
    cid = "dedupe"
    broker = Broker(tmp_path, lease_s=30.0)
    bid = _enqueue(broker, cid, GRID[:2])
    grant = broker.claim("r1")
    items, _ = _run_batch(grant["batches"][0])
    broker.complete("r1", cid, bid, items)
    resubmit = broker.enqueue(cid, [{
        "batch_id": bid, "indices": [0, 1],
        "configs": _payloads(GRID[:2]),
    }], {})
    assert resubmit == {"accepted": 0, "skipped": 1, "batches": 1}
    broker.journal.close()


def test_journal_stats_reported_in_status(tmp_path):
    broker = Broker(tmp_path)
    _enqueue(broker, "s", GRID[:1])
    stats = broker.status()["journal"]
    assert stats["campaigns"] == 1
    assert stats["appends"] == 2  # manifest + enqueue
    assert stats["bytes"] > 0
    broker.journal.close()


def _run_batch(batch):
    from repro.service.runner import execute_batch

    return execute_batch({
        "batch_id": batch.get("batch_id", "b"),
        "campaign_id": batch.get("campaign_id", "c"),
        "indices": batch["indices"],
        "configs": batch["configs"],
        "meta": batch.get("meta", {}),
    })
