"""Schema-pinning for the broker /status payload.

The coordinator's drain loop, `repro obs scrape` runbooks, and
external pollers all consume this JSON; a renamed or dropped key is a
silent API break.  These tests pin the exact key sets so any drift
fails loudly -- extending the payload is fine, but it must
be done here too, deliberately.
"""

import json
import urllib.request

import pytest

from repro.harness.runner import RunConfig
from repro.service.broker import Broker, BrokerServer
from repro.service.protocol import batch_id_for

CFG = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                num_cores=2, dc_megabytes=8)

TOP_LEVEL_KEYS = {
    "campaigns", "runners", "requeues", "uptime_s", "store", "index",
    "journal", "replayed_campaigns", "lease_s",
}
CAMPAIGN_KEYS = {
    "batches", "queued", "leased", "done", "runs_done",
    "records_by_status", "duplicate_completes", "cache_counts",
    "age_s",
}
RUNNER_KEYS = {
    "last_seen_s", "batches_done", "runs_done", "runs_per_sec", "stats",
}


@pytest.fixture
def broker(tmp_path):
    broker = Broker(tmp_path / "store", lease_s=30.0)
    yield broker
    broker.journal.close()


def _populate(broker):
    payloads = [CFG.to_dict()]
    broker.enqueue("c1", [{
        "batch_id": batch_id_for("c1", payloads),
        "indices": [0],
        "configs": payloads,
    }], {}, manifest=payloads)
    broker.claim("r1")
    broker.heartbeat("r1", {"runs_per_sec": 1.0})


def test_status_payload_keys_are_pinned(broker):
    _populate(broker)
    status = broker.status()
    assert set(status) == TOP_LEVEL_KEYS
    assert set(status["campaigns"]["c1"]) == CAMPAIGN_KEYS
    assert set(status["runners"]["r1"]) == RUNNER_KEYS


def test_status_value_types_are_stable(broker):
    _populate(broker)
    status = broker.status()
    campaign = status["campaigns"]["c1"]
    assert all(isinstance(campaign[k], int) for k in
               ("batches", "queued", "leased", "done", "runs_done",
                "duplicate_completes"))
    assert isinstance(campaign["records_by_status"], dict)
    runner = status["runners"]["r1"]
    assert isinstance(runner["stats"], dict)
    assert isinstance(runner["runs_per_sec"], float)
    for key in ("store", "index", "journal"):
        assert isinstance(status[key], dict)
    assert isinstance(status["uptime_s"], float)
    assert isinstance(status["lease_s"], float)


def test_status_over_http_serializes_identically(broker):
    _populate(broker)
    server = BrokerServer(broker).start()
    try:
        with urllib.request.urlopen(f"{server.url}/status",
                                    timeout=10) as resp:
            payload = json.load(resp)
    finally:
        server.shutdown()
    # The HTTP envelope adds the wire-protocol version to every reply.
    assert set(payload) == TOP_LEVEL_KEYS | {"protocol"}
    assert set(payload["campaigns"]["c1"]) == CAMPAIGN_KEYS
    assert set(payload["runners"]["r1"]) == RUNNER_KEYS


def test_campaign_id_filter_limits_campaign_map(broker):
    _populate(broker)
    assert broker.status("nope")["campaigns"] == {}
    assert set(broker.status("c1")["campaigns"]) == {"c1"}
