"""Broker HTTP auth (``X-Repro-Token``)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.broker import Broker, BrokerServer
from repro.service.protocol import PROTOCOL_VERSION, BrokerClient, BrokerError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Server and client both default to this variable; tests pin it
    # explicitly so an ambient value cannot change their meaning.
    monkeypatch.delenv("REPRO_BROKER_TOKEN", raising=False)


def _post(url, path, payload, headers=None):
    body = dict(payload)
    body["protocol"] = PROTOCOL_VERSION
    req = urllib.request.Request(
        url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    return urllib.request.urlopen(req, timeout=10)


def test_mutating_endpoints_require_token(tmp_path):
    broker = Broker(tmp_path / "store")
    with BrokerServer(broker, token="sesame") as server:
        payload = {"campaign_id": "c1", "batches": [], "meta": {}}
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url, "/enqueue", payload)
        assert err.value.code == 401
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url, "/enqueue", payload,
                  headers={"X-Repro-Token": "wrong"})
        assert err.value.code == 401
        resp = _post(server.url, "/enqueue", payload,
                     headers={"X-Repro-Token": "sesame"})
        assert resp.status == 200
        # Read-only endpoints stay open.
        with urllib.request.urlopen(server.url + "/status",
                                    timeout=10) as resp:
            assert "campaigns" in json.loads(resp.read())


def test_broker_client_sends_token(tmp_path):
    broker = Broker(tmp_path / "store")
    with BrokerServer(broker, token="sesame") as server:
        denied = BrokerClient(server.url)
        with pytest.raises(BrokerError, match="HTTP 401"):
            denied.enqueue("c1", [], {})
        allowed = BrokerClient(server.url, token="sesame")
        assert allowed.enqueue("c1", [], {})["accepted"] == 0


def test_token_defaults_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BROKER_TOKEN", "from-env")
    broker = Broker(tmp_path / "store")
    with BrokerServer(broker) as server:
        assert server.token == "from-env"
        # A same-environment client authenticates automatically --
        # export the variable once to secure the whole fleet.
        assert BrokerClient(server.url).enqueue(
            "c1", [], {}
        )["accepted"] == 0
