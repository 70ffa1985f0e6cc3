"""Broker HTTP surface: status endpoint, error paths, no CORS."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.broker import Broker, BrokerServer
from repro.service.protocol import PROTOCOL_VERSION


@pytest.fixture
def server(tmp_path):
    broker = Broker(tmp_path / "store")
    with BrokerServer(broker) as srv:
        yield srv
    broker.journal.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers, resp.read().decode()


def test_status_endpoint_shape(server):
    status, _, body = _get(server.url + "/status")
    assert status == 200
    payload = json.loads(body)
    assert payload["protocol"] == PROTOCOL_VERSION
    assert payload["campaigns"] == {}
    assert payload["runners"] == {}
    assert "uptime_s" in payload and "store" in payload


def test_unknown_endpoint_is_404(server):
    for path in ("/nope", "/dashboard", "/"):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + path)
        assert exc.value.code == 404


def test_post_with_wrong_protocol_is_rejected(server):
    req = urllib.request.Request(
        server.url + "/claim",
        data=json.dumps({"protocol": 99, "runner_id": "r1"}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=10)
    assert exc.value.code == 400
    detail = json.loads(exc.value.read().decode())
    assert "protocol version mismatch" in detail["error"]


def test_no_endpoint_sends_cors_headers(server):
    # Same-origin only: a stray web page cannot read or drive a
    # localhost broker.
    for path in ("/status", "/metrics"):
        _, headers, _ = _get(server.url + path)
        assert headers.get("Access-Control-Allow-Origin") is None
    req = urllib.request.Request(
        server.url + "/heartbeat",
        data=json.dumps({"protocol": PROTOCOL_VERSION, "runner_id": "r1",
                         "stats": {}}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.headers.get("Access-Control-Allow-Origin") is None
