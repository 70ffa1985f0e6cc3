"""The broker's Prometheus endpoint: `GET /metrics` must expose a parseable
exposition whose counters move with traffic and never go backwards --
without any observability configuration (metrics are always on)."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.harness.runner import RunConfig
from repro.obs.metrics import CONTENT_TYPE, counter_samples, parse_exposition
from repro.service.broker import Broker, BrokerServer, _BrokerHandler
from repro.service.protocol import batch_id_for

CFG = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                num_cores=2, dc_megabytes=8)


@pytest.fixture
def server(tmp_path):
    broker = Broker(tmp_path / "store", lease_s=30.0)
    server = BrokerServer(broker).start()
    yield server
    server.shutdown()
    broker.journal.close()


def _scrape(server):
    with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
        assert resp.headers["Content-Type"] == CONTENT_TYPE
        assert resp.headers["X-Repro-Correlation"]
        return resp.read().decode()


def _enqueue_one(broker, cid="c1"):
    payloads = [CFG.to_dict()]
    broker.enqueue(cid, [{
        "batch_id": batch_id_for(cid, payloads),
        "indices": [0],
        "configs": payloads,
    }], {}, manifest=payloads)


def test_metrics_scrape_parses_and_counts_itself(server):
    first, types = parse_exposition(_scrape(server))
    assert types["repro_broker_requests_total"] == "counter"
    assert types["repro_broker_request_seconds"] == "histogram"
    assert types["repro_broker_queue_depth"] == "gauge"

    second, _ = parse_exposition(_scrape(server))
    key = ("repro_broker_requests_total",
           frozenset({("endpoint", "/metrics"), ("code", "200")}))
    # The second scrape has observed the first (and possibly itself).
    assert second[key] >= first.get(key, 0) + 1


class _SpyWriter:
    """Wraps a handler's socket writer; runs ``on_write`` before every
    write, i.e. while the reply is still on its way to the client."""

    def __init__(self, inner, on_write):
        self._inner = inner
        self._on_write = on_write

    def write(self, data):
        self._on_write()
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_request_is_counted_before_its_reply_is_written(server, monkeypatch):
    # A client may read a reply and scrape /metrics at once; that
    # request must already be in the count when any byte of its reply
    # goes out.
    counter = server.broker.m_requests
    seen = []
    setup = _BrokerHandler.setup

    def spying_setup(handler):
        setup(handler)
        handler.wfile = _SpyWriter(handler.wfile, lambda: seen.append(
            counter.value(endpoint="/status", code="200")
        ))

    monkeypatch.setattr(_BrokerHandler, "setup", spying_setup)
    for n in (1, 2, 3):
        seen.clear()
        urllib.request.urlopen(f"{server.url}/status", timeout=10).read()
        assert seen and set(seen) == {n}


def test_handler_that_raises_counts_once_as_a_500(server, monkeypatch):
    def broken_render():
        raise RuntimeError("render failed")

    monkeypatch.setattr(server.broker.metrics, "render", broken_render)
    with pytest.raises((OSError, http.client.HTTPException)):
        urllib.request.urlopen(f"{server.url}/metrics", timeout=10).read()
    counter = server.broker.m_requests
    assert counter.value(endpoint="/metrics", code="500") == 1
    assert counter.value(endpoint="/metrics", code="200") == 0
    # A request that replies is counted once, under its reply's code.
    urllib.request.urlopen(f"{server.url}/status", timeout=10).read()
    assert counter.value(endpoint="/status", code="200") == 1
    assert counter.value(endpoint="/status", code="500") == 0


def test_counters_are_monotone_across_traffic(server):
    before, types = parse_exposition(_scrape(server))
    _enqueue_one(server.broker)
    urllib.request.urlopen(f"{server.url}/status", timeout=10).read()
    after, _ = parse_exposition(_scrape(server))
    cumulative = counter_samples(before, types)
    for key, value in cumulative.items():
        assert after.get(key, 0) >= value, f"counter went backwards: {key}"


def test_queue_depth_and_enqueue_counters_reflect_state(server):
    _enqueue_one(server.broker)
    samples, _ = parse_exposition(_scrape(server))
    assert samples[("repro_broker_queue_depth",
                    frozenset({("state", "queued")}))] == 1
    assert samples[("repro_broker_batches_enqueued_total",
                    frozenset())] == 1
    assert samples[("repro_broker_campaigns", frozenset())] == 1


def test_runner_counters_reexported_from_heartbeats(server):
    server.broker.heartbeat("r7", {
        "runs_per_sec": 2.5,
        "obs": {"backoff_retries": 3, "batch_seconds_total": 1.25,
                "batches_done": 2},
    })
    samples, _ = parse_exposition(_scrape(server))
    runner = frozenset({("runner", "r7")})
    assert samples[("repro_runner_runs_per_sec", runner)] == 2.5
    assert samples[("repro_runner_backoff_retries_total", runner)] == 3
    assert samples[("repro_runner_batch_seconds_total", runner)] == 1.25


def test_not_found_and_bad_json_are_counted_and_correlated(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"{server.url}/nope", timeout=10)
    assert err.value.code == 404
    assert err.value.headers["X-Repro-Correlation"]

    req = urllib.request.Request(
        f"{server.url}/claim", data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400

    samples, _ = parse_exposition(_scrape(server))
    assert samples[("repro_broker_rejects_total",
                    frozenset({("reason", "not_found")}))] == 1
    assert samples[("repro_broker_rejects_total",
                    frozenset({("reason", "bad_json")}))] == 1
    assert samples[("repro_broker_requests_total",
                    frozenset({("endpoint", "other"),
                               ("code", "404")}))] == 1


def test_unauthorized_post_is_counted(tmp_path):
    broker = Broker(tmp_path / "store", lease_s=30.0)
    server = BrokerServer(broker, token="sekret").start()
    try:
        req = urllib.request.Request(
            f"{server.url}/claim",
            data=json.dumps({"runner_id": "r1"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 401
        text = urllib.request.urlopen(
            f"{server.url}/metrics", timeout=10).read().decode()
        samples, _ = parse_exposition(text)
        assert samples[("repro_broker_rejects_total",
                        frozenset({("reason", "unauthorized")}))] == 1
    finally:
        server.shutdown()
        broker.journal.close()
