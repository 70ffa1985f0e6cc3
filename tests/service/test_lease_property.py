"""Property test: lease state machine under clock skew.

Drives the broker's queue through seeded random op sequences against an
injectable fake clock and checks the two lease invariants the service
layer leans on:

1. a lease never expires early -- the broker hands a leased batch to a
   second runner only after ``lease_s`` of fake time has passed since
   the holder's last renewal;
2. a batch completes at most once -- a late ``/complete`` from an
   expired lease's original holder is counted as a duplicate and never
   double-ingested (``runs_done`` and the store stay exact).

A third property covers crash recovery: a broker rebuilt from the
journal alone equals the live broker that wrote it, whatever the
schedule -- live handlers and replay share one transition function.
"""

import random

import pytest

from repro.harness.runner import RunConfig, run_workload
from repro.service.broker import DONE, LEASED, Broker
from repro.service.protocol import batch_id_for

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
GRID = [BASE.with_(seed=s) for s in (1, 2, 3, 4)]
LEASE = 10.0
CID = "lease-prop"

#: One result per grid slot, computed once (the property loop completes
#: batches with ready-made items; no execution inside the loop).
_RESULTS = {}


def _items(i):
    if i not in _RESULTS:
        _RESULTS[i] = run_workload(GRID[i])
    return [{
        "index": i,
        "status": "completed",
        "config": GRID[i].to_dict(),
        "result": _RESULTS[i].to_dict(),
    }]


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _fresh(tmp_path, n=len(GRID)):
    clock = FakeClock()
    broker = Broker(tmp_path, lease_s=LEASE, clock=clock)
    bids = []
    for i, cfg in enumerate(GRID[:n]):
        payloads = [cfg.to_dict()]
        bid = batch_id_for(CID, payloads)
        # Distinct single-config batches (batch id covers the config).
        broker.enqueue(CID, [{
            "batch_id": bid, "indices": [i], "configs": payloads,
        }], {})
        bids.append(bid)
    return clock, broker, bids


@pytest.mark.parametrize("seed", range(10))
def test_lease_invariants_under_random_schedules(tmp_path, seed):
    rng = random.Random(seed)
    clock, broker, bids = _fresh(tmp_path)
    runners = ["r1", "r2", "r3"]
    # Model: per batch -- current holder, fake-time of last renewal,
    # whether a complete was accepted, and who ever held it.
    model = {b: {"holder": None, "renewed": None, "done": False,
                 "holders": set()} for b in bids}
    expected_dupes = 0

    for _ in range(80):
        op = rng.choice(["advance", "advance", "claim", "claim",
                         "heartbeat", "complete", "late_complete"])
        if op == "advance":
            clock.advance(rng.uniform(0.0, 7.0))
        elif op == "claim":
            rid = rng.choice(runners)
            for batch in broker.claim(rid)["batches"]:
                m = model[batch["batch_id"]]
                assert not m["done"], "done batch re-granted"
                if m["holder"] is not None and m["holder"] != rid:
                    # Invariant 1: a takeover implies the previous
                    # lease genuinely ran out -- never early.
                    assert clock.t >= m["renewed"] + LEASE, (
                        f"early expiry: granted at t={clock.t}, "
                        f"holder renewed at {m['renewed']}"
                    )
                m["holder"], m["renewed"] = rid, clock.t
                m["holders"].add(rid)
        elif op == "heartbeat":
            rid = rng.choice(runners)
            broker.heartbeat(rid, {})
            for m in model.values():
                # Renewal only applies while the lease is actually
                # held: an already-expired-and-requeued batch is not
                # resurrected by its old holder's heartbeat.
                if (m["holder"] == rid and not m["done"]
                        and clock.t < m["renewed"] + LEASE):
                    m["renewed"] = clock.t
        elif op in ("complete", "late_complete"):
            candidates = [
                (b, m) for b, m in model.items()
                if (m["holders"] if op == "late_complete"
                    else {m["holder"]} - {None})
            ]
            if not candidates:
                continue
            bid, m = rng.choice(candidates)
            rid = rng.choice(sorted(m["holders"])) \
                if op == "late_complete" else m["holder"]
            i = bids.index(bid)
            answer = broker.complete(rid, CID, bid, _items(i))
            if m["done"]:
                # Invariant 2: the first completion won; anything
                # after it is a counted duplicate, never re-ingested.
                assert answer["accepted"] is False
                expected_dupes += 1
            else:
                assert answer["accepted"] is True
                m["done"] = True
                m["holder"] = None

    status = broker.status(CID)["campaigns"][CID]
    done_batches = sum(1 for m in model.values() if m["done"])
    assert status["done"] == done_batches
    assert status["runs_done"] == done_batches  # one item per batch
    assert status["duplicate_completes"] == expected_dupes
    # Exactly the completed configs are in the store -- no loss, no
    # double-ingest artifacts.
    assert len(broker.store) == done_batches
    broker.journal.close()


def test_directed_skew_scenario(tmp_path):
    """The scripted worst case: renewals just inside the lease keep the
    batch pinned; one missed renewal loses it; the late complete from
    the original holder is a duplicate."""
    clock, broker, bids = _fresh(tmp_path, n=1)
    bid = broker.claim("r1")["batches"][0]["batch_id"]
    i = bids.index(bid)

    # Two renewal cycles, each just inside the lease window.
    for _ in range(2):
        clock.advance(LEASE - 0.5)
        assert broker.claim("r2")["batches"] == [], "lease expired early"
        assert broker.heartbeat("r1", {})["renewed"] == 1

    # Missed renewal: one tick past expiry the batch moves on.
    clock.advance(LEASE + 0.01)
    grant = broker.claim("r2")["batches"]
    assert [b["batch_id"] for b in grant] == [bid]
    assert broker.requeues == 1

    # r2 finishes first; r1's late complete must not double-ingest.
    assert broker.complete("r2", CID, bid, _items(i))["accepted"] is True
    late = broker.complete("r1", CID, bid, _items(i))
    assert late["accepted"] is False and late["reason"] == "already complete"
    status = broker.status(CID)["campaigns"][CID]
    assert status["runs_done"] == 1
    assert status["duplicate_completes"] == 1
    assert len(broker.store) == 1
    broker.journal.close()


def _state(broker):
    """What replay must reproduce, per campaign: each batch's state,
    attempts, requeues and lease owner; the record indices and their
    statuses; the done-count; the manifest; the run options runners
    are handed."""
    return {
        cid: {
            "batches": {
                bid: (b.state, b.attempts, b.requeues,
                      b.lease_runner if b.state == LEASED else None)
                for bid, b in c.batches.items()
            },
            "records": {i: r.get("status") for i, r in c.records.items()},
            "runs_done": c.runs_done,
            "manifest": c.manifest,
            "meta": c.meta,
        }
        for cid, c in broker._campaigns.items()
    }


@pytest.mark.parametrize("seed", range(12))
def test_replayed_broker_equals_live_broker(tmp_path, seed):
    rng = random.Random(1000 + seed)
    clock = FakeClock()
    broker = Broker(tmp_path, lease_s=LEASE, clock=clock)
    campaigns = ["ca", "cb"]
    runners = ["r1", "r2", "r3"]
    # Per campaign: the grid slots submitted so far, and their batches.
    submitted = {cid: [] for cid in campaigns}
    specs = {}

    def spec(cid, i):
        payloads = [GRID[i].to_dict()]
        return {"batch_id": batch_id_for(cid, payloads), "indices": [i],
                "configs": payloads}

    def batch_of(bid):
        for c in broker._campaigns.values():
            if bid in c.batches:
                return c, c.batches[bid]
        raise KeyError(bid)

    for _ in range(70):
        op = rng.choice(["enqueue", "claim", "claim", "complete",
                         "complete", "heartbeat", "advance", "advance",
                         "resubmit"])
        if op == "enqueue":
            cid = rng.choice(campaigns)
            new = rng.sample(range(len(GRID)), rng.randint(1, 2))
            submitted[cid] = sorted(set(submitted[cid]) | set(new))
            batches = [spec(cid, i) for i in new]
            for b in batches:
                specs[b["batch_id"]] = (cid, b)
            broker.enqueue(
                cid, batches, {"retries": rng.randint(0, 2)},
                manifest=[GRID[i].to_dict() for i in submitted[cid]],
            )
        elif op == "claim":
            broker.claim(rng.choice(runners), max_batches=rng.randint(1, 2))
        elif op == "complete":
            leased = [(bid, cid) for bid, (cid, _) in specs.items()
                      if batch_of(bid)[1].state == LEASED]
            if not leased:
                continue
            bid, cid = rng.choice(leased)
            runner = batch_of(bid)[1].lease_runner
            if rng.random() < 0.2:
                runner = rng.choice(runners)  # a late or stray complete
            i = specs[bid][1]["indices"][0]
            items = _items(i)
            if rng.random() < 0.2:
                items = [dict(items[0], status="failed", result=None,
                              failure_kind="crash", error="flaky")]
            broker.complete(runner, cid, bid, items)
        elif op == "heartbeat":
            broker.heartbeat(rng.choice(runners), {})
        elif op == "advance":
            clock.advance(rng.uniform(0.0, 1.5 * LEASE))
        else:  # resubmit after losing one stored result
            done = [(bid, cid, b) for bid, (cid, b) in specs.items()
                    if batch_of(bid)[1].state == DONE]
            if not done:
                continue
            bid, cid, b = rng.choice(done)
            path = broker.store.path_for(GRID[b["indices"][0]])
            if path.exists():
                path.unlink()
            broker.enqueue(cid, [b], {"retries": rng.randint(0, 2)})

    live = _state(broker)
    broker.journal.close()
    reborn = Broker(tmp_path, lease_s=LEASE, clock=clock)
    assert _state(reborn) == live
    assert reborn.replayed_campaigns == len(live)
    reborn.journal.close()
