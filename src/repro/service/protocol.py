"""JSON wire protocol between coordinator, broker, and runners.

Plain HTTP with JSON bodies -- stdlib only (``urllib`` client,
``http.server`` server), no websockets, no pickle across the wire
(configs and results travel as their ``to_dict`` forms, the same
payloads the process pool already ships).

Endpoints (all relative to the broker base URL):

========================  =====  =========================================
``/enqueue``              POST   submit campaign batches (+ manifest)
``/claim``                POST   runner pulls leased batches
``/complete``             POST   runner streams a finished batch's records
``/heartbeat``            POST   runner liveness + telemetry (renews leases)
``/status``               GET    campaigns/runners progress snapshot
``/records``              GET    a campaign's records (coordinator merge)
``/campaign``             GET    a campaign's manifest from the journal
``/metrics``              GET    Prometheus text exposition
========================  =====  =========================================

Every request and response body carries ``{"protocol": 1}``; both sides
reject mismatches loudly rather than mis-parsing each other.  Transport
errors retry with the campaign pool's jittered exponential
:class:`~repro.campaign.pool.Backoff` -- the same policy crashed pool
workers get -- before surfacing as :class:`BrokerUnreachable`.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.pool import Backoff
from repro.obs.log import get_logger
from repro.obs.trace import TRACE_HEADER, current_trace_header

PROTOCOL_VERSION = 1

_LOG = get_logger("protocol")

#: Reconnect policy for runner->broker and coordinator->broker calls.
CLIENT_BACKOFF = Backoff(base=0.2, cap=5.0)


class BrokerError(RuntimeError):
    """The broker answered, but with an application-level error."""


class BrokerUnreachable(BrokerError):
    """No (valid) answer after exhausting the reconnect budget."""


class _ChaosDropped(ConnectionError):
    """An injected request drop (never sent); retried like a real one."""


def batch_id_for(campaign_id: str, configs: Sequence[dict]) -> str:
    """Deterministic batch identity: campaign + canonical config JSON.

    Stable across coordinator restarts, so a resumed submission of the
    same pending work dedupes against batches already queued, leased,
    or done -- the broker's zero-duplication guarantee hangs off this.
    """
    canonical = json.dumps(
        {"campaign": campaign_id, "configs": list(configs)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def normalize_broker_url(broker: str) -> str:
    """Accept ``HOST:PORT``, ``:PORT``, or a full ``http://`` URL."""
    broker = broker.strip().rstrip("/")
    if broker.startswith(("http://", "https://")):
        return broker
    if broker.startswith(":"):
        broker = f"127.0.0.1{broker}"
    return f"http://{broker}"


def check_protocol(payload: dict, side: str) -> dict:
    got = payload.get("protocol")
    if got != PROTOCOL_VERSION:
        raise BrokerError(
            f"protocol version mismatch: {side} speaks {got!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return payload


class BrokerClient:
    """Thin JSON-over-HTTP client used by runners and the coordinator."""

    def __init__(
        self,
        broker: str,
        timeout: float = 30.0,
        backoff: Optional[Backoff] = None,
        max_tries: int = 6,
        sleep: Callable[[float], None] = time.sleep,
        token: Optional[str] = None,
        fault_plan=None,
        fault_role: str = "runner",
        deadline_s: Optional[float] = None,
    ):
        self.base_url = normalize_broker_url(broker)
        self.timeout = timeout
        # Module-level lookup at construction (not def) time, so tests
        # and operators can swap protocol.CLIENT_BACKOFF globally.
        self.backoff = backoff if backoff is not None else CLIENT_BACKOFF
        self.max_tries = max_tries
        self._sleep = sleep
        # Matches the broker's default: one exported REPRO_BROKER_TOKEN
        # secures coordinator, runners, and broker together.
        if token is None:
            token = os.environ.get("REPRO_BROKER_TOKEN") or None
        self.token = token
        #: Optional :class:`repro.service.chaos.FaultPlan`; when set,
        #: every request consults it for injected drop/delay/dup/reset
        #: faults (and ChaosKill, which propagates).
        self.fault_plan = fault_plan
        self.fault_role = fault_role
        #: Total wall-clock budget for one request's retry loop.  The
        #: attempt budget (``max_tries``) bounds the count; this bounds
        #: the time, so a dead broker surfaces as BrokerUnreachable no
        #: later than ``deadline_s`` after the first attempt.
        self.deadline_s = deadline_s
        #: Backoff sleeps taken across this client's lifetime; runners
        #: ship it broker-ward in heartbeats, the broker re-exports it
        #: as ``repro_runner_backoff_retries_total``.
        self.retries_total = 0

    # -- transport ---------------------------------------------------------

    def _netloc(self) -> str:
        return urllib.parse.urlsplit(self.base_url).netloc

    def _send(self, url: str, data: Optional[bytes],
              headers: dict) -> dict:
        req = urllib.request.Request(url, data=data, headers=headers)
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return json.loads(resp.read().decode())

    def _request(self, path: str, payload: Optional[dict] = None,
                 params: Optional[dict] = None, retry: bool = True) -> dict:
        url = self.base_url + path
        if params:
            url += "?" + urllib.parse.urlencode(params)
        data = None
        headers = {"Accept": "application/json"}
        if self.token:
            headers["X-Repro-Token"] = self.token
        # Propagate the active service span (if any) so the broker can
        # parent its ingest span on the runner's batch-run span.
        trace_header = current_trace_header()
        if trace_header:
            headers[TRACE_HEADER] = trace_header
        if payload is not None:
            body = dict(payload)
            body["protocol"] = PROTOCOL_VERSION
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        tries = self.max_tries if retry else 1
        deadline = (
            time.monotonic() + self.deadline_s
            if retry and self.deadline_s is not None else None
        )
        last_error = "no attempt made"
        attempt = 0
        while attempt < tries:
            attempt += 1
            try:
                actions = (
                    self.fault_plan.client_actions(path, self.fault_role)
                    if self.fault_plan is not None else None
                )
                if actions:
                    if actions.get("delay"):
                        # Holds this request while concurrently issued
                        # ones overtake it -- delay and reorder faults.
                        self._sleep(float(actions["delay"]))
                    if actions.get("drop"):
                        raise _ChaosDropped("chaos: request dropped")
                answer = self._send(url, data, headers)
                if actions and actions.get("dup"):
                    # Duplicate delivery of the same payload; the
                    # broker must dedupe (idempotent enqueue, at-most-
                    # once complete), so the extra answer is discarded.
                    try:
                        self._send(url, data, headers)
                    except Exception:
                        pass
                if actions and actions.get("reset"):
                    # The request *was* delivered; losing the response
                    # forces a retry of an already-applied call.
                    raise ConnectionResetError("chaos: connection reset")
                check_protocol(answer, side="broker")
                if answer.get("error"):
                    raise BrokerError(str(answer["error"]))
                return answer
            except urllib.error.HTTPError as exc:
                try:
                    detail = json.loads(exc.read().decode()).get("error", "")
                except Exception:
                    detail = ""
                if exc.code >= 500 and retry:
                    # 5xx is the broker (or a proxy) failing, not an
                    # application answer -- retryable, like a reset.
                    last_error = f"HTTP {exc.code} {detail}".strip()
                else:
                    # 4xx is an application answer: surface it without
                    # retrying.
                    raise BrokerError(
                        f"broker rejected {path}: HTTP {exc.code} {detail}"
                    ) from exc
            except (urllib.error.URLError, ConnectionError, socket.timeout,
                    TimeoutError, json.JSONDecodeError,
                    http.client.HTTPException) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            if attempt < tries:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                self.retries_total += 1
                _LOG.debug(
                    "request.retry", path=path, attempt=attempt,
                    error=last_error,
                )
                self.backoff.sleep(attempt, sleep=self._sleep)
        raise BrokerUnreachable(
            f"broker unreachable at {self._netloc()} after {attempt} "
            f"attempt(s): {last_error}"
        )

    # -- API ---------------------------------------------------------------

    def enqueue(self, campaign_id: str, batches: List[dict], meta: dict,
                manifest: Optional[List[dict]] = None) -> dict:
        return self._request("/enqueue", {
            "campaign_id": campaign_id,
            "batches": batches,
            "meta": meta,
            "manifest": manifest,
        })

    def claim(self, runner_id: str, max_batches: int = 1) -> dict:
        return self._request("/claim", {
            "runner_id": runner_id,
            "max_batches": max_batches,
        })

    def complete(self, runner_id: str, campaign_id: str, batch_id: str,
                 items: List[dict],
                 cache_stats: Optional[dict] = None) -> dict:
        return self._request("/complete", {
            "runner_id": runner_id,
            "campaign_id": campaign_id,
            "batch_id": batch_id,
            "items": items,
            "cache_stats": cache_stats or {},
        })

    def heartbeat(self, runner_id: str, payload: dict,
                  retry: bool = False) -> Optional[dict]:
        """Best-effort by default: a missed heartbeat must never crash
        a runner mid-batch (the lease grace absorbs it)."""
        try:
            return self._request(
                "/heartbeat",
                {"runner_id": runner_id, "stats": payload},
                retry=retry,
            )
        except BrokerUnreachable:
            if retry:
                raise
            return None

    def status(self, campaign_id: Optional[str] = None) -> dict:
        params = {"campaign_id": campaign_id} if campaign_id else None
        return self._request("/status", params=params)

    def records(self, campaign_id: str) -> List[dict]:
        answer = self._request(
            "/records", params={"campaign_id": campaign_id}
        )
        return list(answer.get("items", []))

    def manifest(self, campaign_id: str) -> dict:
        return self._request(
            "/campaign", params={"campaign_id": campaign_id}
        )

    def ping(self) -> bool:
        try:
            self._request("/status", retry=False)
            return True
        except BrokerError:
            return False

    def probe(self, retry: bool = True) -> dict:
        """A reachability check with the normal (bounded) retry budget.

        Raises :class:`BrokerUnreachable` with the one-line operator
        message (``broker unreachable at HOST:PORT ...``) -- the CLI
        surfaces it verbatim and exits 2 instead of spinning forever or
        dumping a traceback.
        """
        return self._request("/status", retry=retry)


# -- record <-> item helpers ------------------------------------------------

def record_to_item(record, grid_index: int) -> Dict[str, object]:
    """A :class:`~repro.campaign.executor.RunRecord` as a wire item.

    ``grid_index`` is the position in the *campaign's* grid (the
    record's own ``.index`` is local to the runner's claimed batch).
    """
    item = record.to_dict()
    item["index"] = grid_index
    return item
