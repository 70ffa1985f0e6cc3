"""The campaign broker: durable work queue + result ingestion.

One broker serves many campaigns and many pull-based runners:

* **enqueue** -- a coordinator submits batches of serialized
  :class:`RunConfig` payloads (grouped by machine-snapshot key so one
  runner amortizes forks across a batch) plus a campaign *manifest*
  (the full config list), which ``--resume`` reads back through
  ``/campaign``;
* **claim/lease** -- runners pull batches and hold a lease; a runner
  that stops heartbeating (crashed, wedged, partitioned) has its leases
  expired and the batches requeued, so a campaign converges as long as
  *some* runner survives.  Batch identity is content-addressed
  (:func:`~repro.service.protocol.batch_id_for`), and a batch completes
  at most once -- a lease that expires mid-run cannot produce duplicate
  records;
* **complete** -- records stream in asynchronously and are ingested
  immediately into the content-addressed
  :class:`~repro.campaign.store.ResultStore` (results), its quarantine
  (deterministic failures, reusing the PR 3 taxonomy), and the SQLite
  :class:`~repro.service.index.ResultIndex` -- the store is the durable
  source of truth for result *data*;
* **journal** -- the only durable record of a campaign.  Every
  transition (manifest, enqueue, lease, requeue, complete, reenqueue)
  is fsynced to an append-only per-campaign
  :class:`~repro.service.journal.Journal` before the broker
  acknowledges it, then committed in memory by :meth:`Broker._apply`.
  Startup replays the journal through that same function, so a broker
  killed mid-campaign restarts with its manifests, queue, leases, and
  done-counts intact -- no coordinator prescan, no re-execution of
  completed batches, and no second copy of the transition rules;
* **status** -- one JSON snapshot (campaign progress, per-runner
  throughput and cache hit rates) feeding the coordinator's poll loop
  and operators (``curl /status``; ``/metrics`` for Prometheus).

The queue logic lives in :class:`Broker`, pure in-memory + store I/O
with an injectable clock (unit-testable without sockets);
:class:`BrokerServer` wraps it in a threading stdlib HTTP server.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.campaign.executor import CACHED, COMPLETED, QUARANTINED
from repro.campaign.store import ResultStore
from repro.harness.runner import RunConfig, merge_cache_counts
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.trace import TRACE_HEADER, parse_trace_header
from repro.service.index import ResultIndex
from repro.service.journal import Journal, slim_item
from repro.service.protocol import PROTOCOL_VERSION, BrokerError, check_protocol
from repro.system.machine import MachineResult

QUEUED = "queued"
LEASED = "leased"
DONE = "done"

_LOG = obs.get_logger("broker")

#: Endpoint paths used as metric label values; anything else is "other"
#: so a scanner probing random paths cannot blow up label cardinality.
_ENDPOINTS = frozenset({
    "/enqueue", "/claim", "/complete", "/heartbeat",
    "/status", "/records", "/campaign", "/metrics",
})


def _now_us() -> int:
    return int(time.time() * 1e6)


@dataclass
class _Batch:
    batch_id: str
    indices: List[int]
    configs: List[dict]
    state: str = QUEUED
    lease_runner: str = ""
    lease_expiry: float = 0.0
    attempts: int = 0
    requeues: int = 0
    #: A /complete is ingesting this batch's items right now.  Guards
    #: against duplicate completions double-ingesting and against the
    #: lease expiring out from under an in-flight ingest.
    completing: bool = False


@dataclass
class _Campaign:
    campaign_id: str
    created_at: float
    meta: Dict[str, object] = field(default_factory=dict)
    batches: Dict[str, _Batch] = field(default_factory=dict)
    queue: Deque[str] = field(default_factory=deque)
    records: Dict[int, dict] = field(default_factory=dict)
    #: The config list from the latest ``manifest`` journal entry; what
    #: ``/campaign`` serves to ``--resume``.
    manifest: Optional[List[dict]] = None
    cache_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    runs_done: int = 0
    duplicate_completes: int = 0


@dataclass
class _Runner:
    runner_id: str
    first_seen: float
    last_seen: float
    batches_done: int = 0
    runs_done: int = 0
    stats: Dict[str, object] = field(default_factory=dict)


class Broker:
    """Queue + lease + ingestion state machine (transport-agnostic)."""

    def __init__(
        self,
        store_root: Union[str, Path],
        lease_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = ResultStore(store_root)
        self.index = ResultIndex(store_root)
        self.store.attach_index(self.index)
        self.lease_s = lease_s
        self.clock = clock
        self.started_at = clock()
        self.requeues = 0
        self._lock = threading.RLock()
        self._campaigns: Dict[str, _Campaign] = {}
        self._runners: Dict[str, _Runner] = {}
        self.metrics = self._build_metrics()
        self.journal = Journal(
            store_root, fsync_observer=self.m_journal_fsync.observe
        )
        self.replayed_campaigns = self._replay_journal()
        if self.replayed_campaigns:
            _LOG.info(
                "journal.replayed",
                campaigns=self.replayed_campaigns,
                corrupt_lines=self.journal.corrupt_lines,
            )

    def _build_metrics(self) -> "obs.MetricsRegistry":
        """The /metrics registry.  Always on: a handful of dict updates
        per request is noise next to the HTTP round trip, and a scrape
        must work without any observability configuration."""
        reg = obs.MetricsRegistry()
        self.m_requests = reg.counter(
            "repro_broker_requests_total",
            "HTTP requests handled, by endpoint and status code",
            labels=("endpoint", "code"),
        )
        self.m_rejects = reg.counter(
            "repro_broker_rejects_total",
            "Requests rejected before dispatch (auth, routing, parse)",
            labels=("reason",),
        )
        self.m_request_latency = reg.histogram(
            "repro_broker_request_seconds",
            "Wall-clock request handling latency",
            labels=("endpoint",),
        )
        self.m_lease_expiries = reg.counter(
            "repro_broker_lease_expiries_total",
            "Leases expired and requeued (runner presumed dead)",
        )
        self.m_dup_completes = reg.counter(
            "repro_broker_duplicate_completes_total",
            "Late or retried /complete calls dropped by at-most-once",
        )
        self.m_batches_enqueued = reg.counter(
            "repro_broker_batches_enqueued_total",
            "Batches accepted onto the queue",
        )
        self.m_runs_ingested = reg.counter(
            "repro_broker_runs_ingested_total",
            "Run records ingested into the store/index",
        )
        self.m_journal_fsync = reg.histogram(
            "repro_broker_journal_fsync_seconds",
            "Durability cost of one journal append (write+flush+fsync)",
        )
        self.m_ingest_latency = reg.histogram(
            "repro_broker_ingest_seconds",
            "Store/index ingestion latency per run record",
        )
        reg.gauge_func(
            "repro_broker_queue_depth",
            self._queue_depth_samples,
            "Batches per state across all campaigns",
            labels=("state",),
        )
        reg.gauge_func(
            "repro_broker_campaigns", lambda: len(self._campaigns),
            "Campaigns known to this broker",
        )
        reg.gauge_func(
            "repro_broker_runners", lambda: len(self._runners),
            "Runners that have ever checked in",
        )
        # Runner-side counters ship through the heartbeat channel
        # (runner.stats) and are re-exported here, labelled per runner.
        reg.counter_func(
            "repro_runner_runs_done_total",
            lambda: self._runner_samples(lambda r: r.runs_done),
            "Run records reported by each runner",
            labels=("runner",),
        )
        reg.counter_func(
            "repro_runner_batches_done_total",
            lambda: self._runner_samples(lambda r: r.batches_done),
            "Batches completed by each runner",
            labels=("runner",),
        )
        reg.gauge_func(
            "repro_runner_runs_per_sec",
            lambda: self._runner_samples(
                lambda r: float(r.stats.get("runs_per_sec") or 0.0)
            ),
            "Rolling throughput from each runner's heartbeats",
            labels=("runner",),
        )
        reg.counter_func(
            "repro_runner_cache_events_total",
            self._runner_cache_samples,
            "Fork/trace cache hits and misses per runner (cumulative)",
            labels=("runner", "cache", "kind"),
        )
        reg.counter_func(
            "repro_runner_backoff_retries_total",
            lambda: self._runner_obs_samples("backoff_retries"),
            "Broker-request retry sleeps taken by each runner",
            labels=("runner",),
        )
        reg.counter_func(
            "repro_runner_batch_seconds_total",
            lambda: self._runner_obs_samples("batch_seconds_total"),
            "Wall-clock seconds each runner has spent executing batches",
            labels=("runner",),
        )
        return reg

    def _queue_depth_samples(self):
        with self._lock:
            depth = {QUEUED: 0, LEASED: 0, DONE: 0}
            for campaign in self._campaigns.values():
                for batch in campaign.batches.values():
                    depth[batch.state] += 1
        return [((state,), n) for state, n in sorted(depth.items())]

    def _runner_samples(self, fn):
        with self._lock:
            return [((rid,), fn(r)) for rid, r in self._runners.items()]

    def _runner_obs_samples(self, key: str):
        with self._lock:
            out = []
            for rid, r in self._runners.items():
                stats = r.stats.get("obs") or {}
                if isinstance(stats, dict) and key in stats:
                    out.append(((rid,), float(stats[key])))
        return out

    def _runner_cache_samples(self):
        with self._lock:
            out = []
            for rid, r in self._runners.items():
                cache = r.stats.get("cache") or {}
                if not isinstance(cache, dict):
                    continue
                for section, counts in cache.items():
                    if not isinstance(counts, dict):
                        continue
                    for kind in ("hits", "misses"):
                        if kind in counts:
                            out.append(
                                ((rid, section, kind), float(counts[kind]))
                            )
        return out

    # -- the transition function ------------------------------------------

    def _apply(self, campaign: _Campaign, entry: dict) -> None:
        """Commit one journal entry to memory.

        The only code that moves a batch between states or changes a
        campaign's records, done-count, manifest, or run options.  Live
        handlers call it right after journaling a transition;
        :meth:`_replay_journal` calls it for every replayed entry -- so a
        restarted broker is rebuilt by exactly the code that built the
        state it lost.  An entry that does not fit the batch's state (a
        lease of a done batch, say) changes nothing.
        """
        op = entry.get("op")
        if op == "manifest":
            campaign.manifest = list(entry.get("configs") or [])
            return
        batch_id = str(entry.get("batch_id", ""))
        batch = campaign.batches.get(batch_id)
        if op == "enqueue":
            if batch is not None or not batch_id:
                return
            campaign.batches[batch_id] = _Batch(
                batch_id=batch_id,
                indices=[int(i) for i in entry.get("indices", [])],
                configs=list(entry.get("configs", [])),
            )
            campaign.queue.append(batch_id)
            campaign.meta.update(entry.get("meta") or {})
        elif batch is None:
            return
        elif op == "lease" and batch.state != DONE:
            # Replay issues a fresh full lease: the holder may still be
            # alive and heartbeating; if it died, expiry requeues.
            batch.state = LEASED
            batch.lease_runner = str(entry.get("runner_id", ""))
            batch.lease_expiry = self.clock() + self.lease_s
            batch.attempts = max(
                batch.attempts + 1, int(entry.get("attempt", 0))
            )
        elif (op == "requeue" and batch.state != DONE
              or op == "reenqueue" and batch.state == DONE):
            if op == "reenqueue":
                # A resubmitted DONE batch whose store backing vanished:
                # forget its records so it runs again, under the
                # resubmission's run options.
                for idx in batch.indices:
                    if campaign.records.pop(idx, None) is not None:
                        campaign.runs_done = max(0, campaign.runs_done - 1)
                campaign.meta.update(entry.get("meta") or {})
            batch.state = QUEUED
            batch.lease_runner = ""
            batch.requeues += 1
            campaign.queue.append(batch_id)
        elif op == "complete" and batch.state != DONE:
            batch.state = DONE
            batch.lease_runner = ""
            items = list(entry.get("items") or [])
            campaign.runs_done += len(items)
            for item in items:
                campaign.records[int(item["index"])] = item
            merge_cache_counts(
                campaign.cache_counts, entry.get("cache_stats") or {}
            )

    def _commit(self, campaign: _Campaign, entry: dict) -> None:
        """Journal one transition, then apply it.  An append that fails
        raises before memory changes: the journal may run ahead of
        acknowledged state, never behind it."""
        self.journal.append(campaign.campaign_id, **entry)
        self._apply(campaign, entry)

    def _replay_journal(self) -> int:
        """Rebuild every campaign from the on-disk journal.

        Called once from ``__init__``: completed batches stay done (no
        re-execution), queued batches are claimable again, leased
        batches get a fresh lease, and each campaign's manifest is
        back for ``--resume``.  No coordinator prescan or re-enqueue is
        needed.
        """
        replayed = self.journal.replay()
        for cid in sorted(replayed):
            campaign = self._campaigns[cid] = _Campaign(cid, self.clock())
            for entry in replayed[cid]:
                self._apply(campaign, entry)
        return len(replayed)

    # -- queue -------------------------------------------------------------

    def enqueue(self, campaign_id: str, batches: List[dict], meta: dict,
                manifest: Optional[List[dict]] = None) -> dict:
        if not campaign_id:
            raise BrokerError("enqueue needs a campaign_id")
        meta = dict(meta or {})
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                campaign = _Campaign(campaign_id, self.clock())
                self._campaigns[campaign_id] = campaign
            if manifest is not None and campaign.manifest != manifest:
                # Ahead of the batches: a crash mid-enqueue still
                # leaves a campaign that --resume can re-drive.
                self._commit(campaign, {
                    "op": "manifest", "configs": list(manifest),
                })
            accepted = skipped = 0
            for spec in batches:
                batch_id = str(spec["batch_id"])
                existing = campaign.batches.get(batch_id)
                if existing is None:
                    indices = [int(i) for i in spec["indices"]]
                    configs = list(spec["configs"])
                    if len(indices) != len(configs):
                        raise BrokerError(
                            f"batch {batch_id}: {len(indices)} indices "
                            f"vs {len(configs)} configs"
                        )
                    # If the append fails the batch is simply not
                    # accepted (the client retries the whole enqueue,
                    # which dedupes).
                    self._commit(campaign, {
                        "op": "enqueue", "batch_id": batch_id,
                        "indices": indices, "configs": configs,
                        "meta": meta,
                    })
                    accepted += 1
                elif (existing.state == DONE
                        and not existing.completing
                        and not self._batch_backed(campaign, existing)):
                    # A coordinator only resubmits a batch it believes
                    # needs running.  If the batch is DONE but its
                    # results are no longer backed by the store (e.g. a
                    # partial store copy lost files after the journal
                    # recorded the completion), un-complete it so the
                    # work actually happens again; otherwise the
                    # journal would pin the loss forever.
                    try:
                        self._commit(campaign, {
                            "op": "reenqueue", "batch_id": batch_id,
                            "meta": meta,
                        })
                    except OSError:
                        skipped += 1
                        continue
                    accepted += 1
                else:
                    skipped += 1
            total = len(campaign.batches)
        if accepted:
            self.m_batches_enqueued.inc(accepted)
        _LOG.info(
            "enqueue", campaign=campaign_id,
            accepted=accepted, skipped=skipped, batches=total,
        )
        return {"accepted": accepted, "skipped": skipped, "batches": total}

    def _batch_backed(self, campaign: _Campaign, batch: _Batch) -> bool:
        """Whether every item of a DONE batch is still store-backed.

        Completed/cached items must be retrievable from the result
        store, quarantined ones from the quarantine; failed/timeout
        items pin nothing, so a resubmission of them means "retry".
        """
        for pos, idx in enumerate(batch.indices):
            item = campaign.records.get(idx)
            if item is None:
                return False
            status = item.get("status", "")
            try:
                cfg = RunConfig.from_dict(
                    item.get("config") or batch.configs[pos]
                )
            except (KeyError, TypeError, ValueError, IndexError):
                return False
            if status in (COMPLETED, CACHED):
                if self.store.get(cfg) is None:
                    return False
            elif status == QUARANTINED:
                if self.store.get_failure(cfg) is None:
                    return False
            else:
                return False
        return True

    def _expire_leases(self) -> None:
        now = self.clock()
        with self._lock:
            for campaign in self._campaigns.values():
                for batch in campaign.batches.values():
                    if (batch.state == LEASED and not batch.completing
                            and now >= batch.lease_expiry):
                        runner_id = batch.lease_runner
                        try:
                            self._commit(campaign, {
                                "op": "requeue",
                                "batch_id": batch.batch_id,
                                "runner_id": runner_id,
                            })
                        except OSError:
                            # Leave the batch leased; the next expiry
                            # sweep retries the append.
                            continue
                        _LOG.warning(
                            "lease.expired",
                            campaign=campaign.campaign_id,
                            batch_id=batch.batch_id,
                            runner_id=runner_id,
                            attempts=batch.attempts,
                        )
                        self.requeues += 1
                        self.m_lease_expiries.inc()

    def claim(self, runner_id: str, max_batches: int = 1) -> dict:
        if not runner_id:
            raise BrokerError("claim needs a runner_id")
        self._expire_leases()
        t0_us = _now_us()
        granted: List[dict] = []
        with self._lock:
            self._touch_runner(runner_id)
            # Oldest campaign first: finish what was started before
            # spreading onto newer submissions.
            for campaign in sorted(
                self._campaigns.values(), key=lambda c: c.created_at
            ):
                while campaign.queue and len(granted) < max_batches:
                    batch_id = campaign.queue.popleft()
                    batch = campaign.batches[batch_id]
                    if batch.state != QUEUED:
                        continue  # stale queue entry (e.g. done meanwhile)
                    # Journal the lease before granting it (heartbeat
                    # renewals are deliberately not journaled -- replay
                    # just issues a fresh full lease).  On append
                    # failure the batch goes back to the queue head.
                    try:
                        self._commit(campaign, {
                            "op": "lease", "batch_id": batch_id,
                            "runner_id": runner_id,
                            "attempt": batch.attempts + 1,
                        })
                    except OSError:
                        campaign.queue.appendleft(batch_id)
                        raise
                    granted.append({
                        "campaign_id": campaign.campaign_id,
                        "batch_id": batch.batch_id,
                        "indices": list(batch.indices),
                        "configs": list(batch.configs),
                        "meta": dict(campaign.meta),
                        "attempt": batch.attempts,
                    })
                if len(granted) >= max_batches:
                    break
        if granted:
            _LOG.info(
                "claim.grant", runner_id=runner_id,
                batches=[g["batch_id"] for g in granted],
            )
            tracer = obs.service_tracer("broker")
            if tracer is not None:
                # One retrospective span per grant, parented on the
                # campaign span the coordinator shipped in the meta.
                t1_us = _now_us()
                for grant in granted:
                    trace_meta = (grant.get("meta") or {}).get("trace") or {}
                    trace_id = trace_meta.get("trace_id")
                    if not trace_id:
                        continue
                    span_id = tracer.span_at(
                        "claim", str(trace_id), t0_us, t1_us,
                        parent=trace_meta.get("span_id"),
                        args={
                            "campaign_id": grant["campaign_id"],
                            "batch_id": grant["batch_id"],
                            "runner_id": runner_id,
                            "attempt": grant["attempt"],
                        },
                    )
                    # The runner parents its batch-run span on the claim
                    # span; ship the id inside the grant's meta copy.
                    meta = dict(grant["meta"])
                    meta["trace"] = dict(trace_meta, claim_span=span_id)
                    grant["meta"] = meta
        return {"batches": granted, "lease_s": self.lease_s}

    def complete(self, runner_id: str, campaign_id: str, batch_id: str,
                 items: List[dict],
                 cache_stats: Optional[dict] = None,
                 trace_ctx: Optional[tuple] = None) -> dict:
        t0_us = _now_us()
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise BrokerError(f"unknown campaign {campaign_id!r}")
            batch = campaign.batches.get(batch_id)
            if batch is None:
                raise BrokerError(
                    f"unknown batch {batch_id!r} in campaign {campaign_id!r}"
                )
            if batch.state == DONE or batch.completing:
                # An expired lease's original runner finishing late, or
                # a retried /complete: the first completion won.  Drop
                # it -- never double-ingest.
                campaign.duplicate_completes += 1
                self.m_dup_completes.inc()
                _LOG.info(
                    "complete.duplicate", campaign=campaign_id,
                    batch_id=batch_id, runner_id=runner_id,
                )
                return {"accepted": False, "reason": "already complete"}
            # Reject before anything is stored or journaled: each item
            # must fill a distinct slot of this batch, or runs_done and
            # /records would disagree.
            slots = [
                item.get("index") if isinstance(item, dict) else None
                for item in items
            ]
            if not all(type(i) is int and i in batch.indices
                       for i in slots) or len(set(slots)) != len(slots):
                raise BrokerError(
                    f"batch {batch_id!r}: item indices {slots} are not "
                    f"distinct slots of {batch.indices}"
                )
            batch.completing = True
            trace_meta = campaign.meta.get("trace") or {}
        entry = {
            "op": "complete", "batch_id": batch_id, "runner_id": runner_id,
            "items": items, "cache_stats": dict(cache_stats or {}),
        }
        # Store/index ingestion outside the queue lock (file and SQLite
        # I/O with its own locking; claims must not stall behind it) but
        # BEFORE the batch flips to DONE: the coordinator breaks its
        # drain loop the moment /status counts every batch done and
        # immediately fetches /records, so each item must be visible by
        # the time the done count includes this batch.  The journal
        # entry lands after ingest and before the flip: a crash in
        # between replays as done (items already durable in the store),
        # a crash before it replays as leased (requeue + idempotent
        # re-ingest).
        try:
            for item in items:
                t_item = time.perf_counter()
                self._ingest_item(item)
                self.m_ingest_latency.observe(time.perf_counter() - t_item)
            # Results live in the store; the journal keeps slim items.
            self.journal.append(
                campaign_id, **dict(entry, items=[slim_item(i) for i in items])
            )
        except BaseException:
            # Leave the batch leased: the lease expires, the batch
            # requeues, and a re-run's ingest converges (store writes
            # are idempotent by content address).
            with self._lock:
                batch.completing = False
            raise
        with self._lock:
            self._apply(campaign, entry)
            batch.completing = False
            runner = self._touch_runner(runner_id)
            runner.batches_done += 1
            runner.runs_done += len(items)
            # runner.stats["cache"] is owned by heartbeats (the runner
            # process's cumulative counters); merging the per-batch
            # delta here too would double-count hits and misses.
        self.m_runs_ingested.inc(len(items))
        _LOG.info(
            "complete", campaign=campaign_id, batch_id=batch_id,
            runner_id=runner_id, items=len(items),
        )
        tracer = obs.service_tracer("broker")
        if tracer is not None:
            # Parent the ingest span on the runner's batch-run span
            # (from the X-Repro-Trace header) when it was propagated;
            # fall back to the campaign root from the enqueue meta.
            trace_id = parent = None
            if trace_ctx:
                trace_id, parent = trace_ctx
            elif trace_meta.get("trace_id"):
                trace_id = str(trace_meta["trace_id"])
                parent = trace_meta.get("span_id")
            if trace_id:
                tracer.span_at(
                    "ingest", trace_id, t0_us, _now_us(), parent=parent,
                    args={
                        "campaign_id": campaign_id,
                        "batch_id": batch_id,
                        "runner_id": runner_id,
                        "items": len(items),
                    },
                )
        return {"accepted": True}

    def _ingest_item(self, item: dict) -> None:
        status = item.get("status", "")
        cfg = RunConfig.from_dict(item["config"])
        if status in (COMPLETED, CACHED) and item.get("result"):
            self.store.put(cfg, MachineResult.from_dict(item["result"]))
        elif status == QUARANTINED:
            self.store.put_failure(cfg, {
                "failure_kind": item.get("failure_kind", ""),
                "error": item.get("error", ""),
                "bundle_path": item.get("bundle_path", ""),
                "traceback": item.get("traceback", ""),
            })
        else:  # failed / timeout: indexed for `repro results --failed`,
            # but not pinned -- a resume retries these.
            self.index.ingest_failure(
                self.store.key(cfg), cfg.to_dict(),
                {"failure_kind": item.get("failure_kind", ""),
                 "error": item.get("error", "")},
                version=self.store.version,
                status=status or "failed",
            )

    def heartbeat(self, runner_id: str, stats: dict) -> dict:
        self._expire_leases()
        now = self.clock()
        renewed = 0
        with self._lock:
            runner = self._touch_runner(runner_id)
            if stats:
                runner.stats.update(stats)
            for campaign in self._campaigns.values():
                for batch in campaign.batches.values():
                    if batch.state == LEASED and batch.lease_runner == runner_id:
                        batch.lease_expiry = now + self.lease_s
                        renewed += 1
        return {"renewed": renewed, "lease_s": self.lease_s}

    def _touch_runner(self, runner_id: str) -> _Runner:
        now = self.clock()
        runner = self._runners.get(runner_id)
        if runner is None:
            runner = _Runner(runner_id, first_seen=now, last_seen=now)
            self._runners[runner_id] = runner
        runner.last_seen = now
        return runner

    # -- introspection -----------------------------------------------------

    def campaign_status(self, campaign: _Campaign) -> dict:
        states = {QUEUED: 0, LEASED: 0, DONE: 0}
        for batch in campaign.batches.values():
            states[batch.state] += 1
        by_status: Dict[str, int] = {}
        for item in campaign.records.values():
            s = item.get("status", "?")
            by_status[s] = by_status.get(s, 0) + 1
        return {
            "batches": len(campaign.batches),
            "queued": states[QUEUED],
            "leased": states[LEASED],
            "done": states[DONE],
            "runs_done": campaign.runs_done,
            "records_by_status": by_status,
            "duplicate_completes": campaign.duplicate_completes,
            "cache_counts": {
                k: dict(v) for k, v in campaign.cache_counts.items()
            },
            "age_s": round(self.clock() - campaign.created_at, 3),
        }

    def status(self, campaign_id: Optional[str] = None) -> dict:
        self._expire_leases()
        now = self.clock()
        with self._lock:
            campaigns = {
                cid: self.campaign_status(c)
                for cid, c in self._campaigns.items()
                if campaign_id is None or cid == campaign_id
            }
            runners = {}
            for rid, r in self._runners.items():
                elapsed = max(1e-9, r.last_seen - r.first_seen)
                runners[rid] = {
                    "last_seen_s": round(now - r.last_seen, 3),
                    "batches_done": r.batches_done,
                    "runs_done": r.runs_done,
                    "runs_per_sec": (
                        round(r.runs_done / elapsed, 3) if r.runs_done else 0.0
                    ),
                    "stats": dict(r.stats),
                }
        return {
            "campaigns": campaigns,
            "runners": runners,
            "requeues": self.requeues,
            "uptime_s": round(now - self.started_at, 3),
            "store": self.store.stats(),
            "index": self.index.stats(),
            "journal": self.journal.stats(),
            "replayed_campaigns": self.replayed_campaigns,
            "lease_s": self.lease_s,
        }

    def records(self, campaign_id: str) -> List[dict]:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise BrokerError(f"unknown campaign {campaign_id!r}")
            items = [
                dict(campaign.records[i]) for i in sorted(campaign.records)
            ]
        # Items restored from the journal are slim (no result payload);
        # rehydrate them from the content-addressed store, which held
        # the data across the restart.
        for item in items:
            if item.get("result") or item.get("status") not in (
                COMPLETED, CACHED
            ):
                continue
            try:
                cfg = RunConfig.from_dict(item["config"])
            except (KeyError, TypeError, ValueError):
                continue
            result = self.store.get(cfg)
            if result is not None:
                item["result"] = result.to_dict()
        return items

    def manifest(self, campaign_id: str) -> dict:
        """A campaign's config list, as journaled (the ``/campaign``
        endpoint; ``--resume`` re-drives from it)."""
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise BrokerError(f"unknown campaign {campaign_id!r}")
            if campaign.manifest is None:
                raise BrokerError(
                    f"campaign {campaign_id!r} has no journaled manifest; "
                    f"re-run its sweep with --campaign-id {campaign_id}"
                )
            return {
                "campaign_id": campaign_id,
                "configs": list(campaign.manifest),
            }


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------

class _BrokerHandler(BaseHTTPRequestHandler):
    # Set by BrokerServer:
    broker: Broker = None  # type: ignore[assignment]
    token: Optional[str] = None
    fault_plan = None  # Optional[repro.service.chaos.FaultPlan]
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        # Routed through the structured logger (a no-op unless obs is
        # configured) instead of discarded: CI logs stay readable, but
        # an operator with REPRO_OBS_DIR set gets every access line.
        _LOG.debug(
            "http.access",
            message=fmt % args,
            remote=self.client_address[0],
        )

    # -- chaos (server-side fault injection) -------------------------------

    def _chaos_preempt(self, path: str) -> bool:
        """Consult the fault plan once per request.  Returns True when
        an injected 500 already answered (the request body is never
        read, so the connection must close); arms response truncation
        for :meth:`_reply` otherwise."""
        self._chaos_truncate = False
        if self.fault_plan is None:
            return False
        actions = self.fault_plan.server_actions(path)
        if actions.get("truncate"):
            self._chaos_truncate = True
        if actions.get("http_500"):
            self.close_connection = True
            self._reply({"error": "chaos: injected HTTP 500"}, code=500)
            return True
        return False

    # -- plumbing ----------------------------------------------------------

    def _reply(self, payload: dict, code: int = 200,
               content_type: str = "application/json") -> None:
        if content_type == "application/json":
            payload = dict(payload)
            payload["protocol"] = PROTOCOL_VERSION
            body = json.dumps(payload).encode()
        else:
            body = payload  # type: ignore[assignment]
        if getattr(self, "_chaos_truncate", False) and code == 200:
            # Truncated body with a matching Content-Length: the client
            # reads a short, unparseable JSON document and retries.
            self._chaos_truncate = False
            body = body[: max(1, len(body) // 2)]
            self.close_connection = True
        # Counted before the first byte goes out: a client that reads
        # this reply and scrapes /metrics at once must see it counted.
        self._count_request(code)
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_cid", None):
            self.send_header("X-Repro-Correlation", self._cid)
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        if not self.token:
            return True
        supplied = self.headers.get("X-Repro-Token", "")
        return hmac.compare_digest(supplied, self.token)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode() or "{}")
        except ValueError:
            raise BrokerError("request body is not valid JSON")
        return check_protocol(payload, side="client")

    def _dispatch(self, fn) -> None:
        try:
            self._reply(fn())
        except BrokerError as exc:
            self._reply({"error": str(exc)}, code=400)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": f"{type(exc).__name__}: {exc}"}, code=500)

    # -- routes ------------------------------------------------------------

    def _observed(self, method: str, handler) -> None:
        """Instrumentation envelope shared by GET and POST.

        Every request gets a correlation id (bound into the structured
        log context and echoed back in ``X-Repro-Correlation``), a
        latency observation, and exactly one ``requests_total`` count
        by endpoint and status code -- taken by :meth:`_reply`, or here
        as a 500 when the handler raised before replying.
        """
        path = urlparse(self.path).path
        self._endpoint = path if path in _ENDPOINTS else "other"
        self._cid = obs.new_correlation_id()
        self._counted = False
        t0 = time.perf_counter()
        with obs.bind(correlation_id=self._cid, http=f"{method} {path}"):
            try:
                handler()
            finally:
                self._count_request(500)
                self.broker.m_request_latency.observe(
                    time.perf_counter() - t0, endpoint=self._endpoint
                )

    def _count_request(self, code: int) -> None:
        if not self._counted:
            self._counted = True
            self.broker.m_requests.inc(
                endpoint=self._endpoint, code=str(code)
            )

    def do_POST(self):  # noqa: N802 - stdlib name
        self._observed("POST", self._handle_post)

    def do_GET(self):  # noqa: N802 - stdlib name
        self._observed("GET", self._handle_get)

    def _handle_post(self):
        path = urlparse(self.path).path
        if self._chaos_preempt(path):
            return
        if not self._authorized():
            self.broker.m_rejects.inc(reason="unauthorized")
            _LOG.warning("http.unauthorized", path=path)
            return self._reply(
                {"error": "missing or invalid X-Repro-Token"}, code=401
            )
        try:
            body = self._read_json()
        except BrokerError as exc:
            self.broker.m_rejects.inc(reason="bad_json")
            _LOG.warning("http.bad_json", path=path, error=str(exc))
            return self._reply({"error": str(exc)}, code=400)
        broker = self.broker
        if path == "/enqueue":
            self._dispatch(lambda: broker.enqueue(
                str(body.get("campaign_id", "")),
                list(body.get("batches", [])),
                dict(body.get("meta") or {}),
                body.get("manifest"),
            ))
        elif path == "/claim":
            self._dispatch(lambda: broker.claim(
                str(body.get("runner_id", "")),
                int(body.get("max_batches", 1)),
            ))
        elif path == "/complete":
            trace_ctx = parse_trace_header(self.headers.get(TRACE_HEADER))
            self._dispatch(lambda: broker.complete(
                str(body.get("runner_id", "")),
                str(body.get("campaign_id", "")),
                str(body.get("batch_id", "")),
                list(body.get("items", [])),
                dict(body.get("cache_stats") or {}),
                trace_ctx=trace_ctx,
            ))
        elif path == "/heartbeat":
            self._dispatch(lambda: broker.heartbeat(
                str(body.get("runner_id", "")),
                dict(body.get("stats") or {}),
            ))
        else:
            self.broker.m_rejects.inc(reason="not_found")
            _LOG.info("http.not_found", path=path, method="POST")
            self._reply({"error": f"no such endpoint {path}"}, code=404)

    def _handle_get(self):
        parsed = urlparse(self.path)
        if self._chaos_preempt(parsed.path):
            return
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        broker = self.broker
        if parsed.path == "/metrics":
            self._reply(
                broker.metrics.render().encode(),
                content_type=METRICS_CONTENT_TYPE,
            )
        elif parsed.path == "/status":
            self._dispatch(lambda: broker.status(params.get("campaign_id")))
        elif parsed.path == "/records":
            self._dispatch(lambda: {
                "items": broker.records(params.get("campaign_id", ""))
            })
        elif parsed.path == "/campaign":
            self._dispatch(
                lambda: broker.manifest(params.get("campaign_id", ""))
            )
        else:
            self.broker.m_rejects.inc(reason="not_found")
            _LOG.info("http.not_found", path=parsed.path, method="GET")
            self._reply({"error": f"no such endpoint {parsed.path}"},
                        code=404)


class BrokerServer:
    """A :class:`Broker` behind a threading stdlib HTTP server.

    ``token`` gates every mutating (POST) endpoint behind an
    ``X-Repro-Token`` header; ``None`` falls back to
    ``$REPRO_BROKER_TOKEN`` (empty/unset = open, fine for the loopback
    default -- set it whenever binding a routable interface).
    :class:`~repro.service.protocol.BrokerClient` reads the same
    environment variable, so an exported token secures coordinator,
    runners, and broker together.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0, token: Optional[str] = None,
                 fault_plan=None):
        self.broker = broker
        if token is None:
            token = os.environ.get("REPRO_BROKER_TOKEN") or None
        self.token = token
        handler = type(
            "BoundBrokerHandler", (_BrokerHandler,),
            {"broker": broker, "token": token, "fault_plan": fault_plan},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BrokerServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="broker-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve_broker(host: str, port: int, store_root: Union[str, Path],
                 lease_s: float = 60.0,
                 token: Optional[str] = None) -> None:
    """Blocking entry point behind ``python -m repro broker``."""
    obs.install_signal_dump()
    broker = Broker(store_root, lease_s=lease_s)
    server = BrokerServer(broker, host=host, port=port, token=token)
    auth = "on (X-Repro-Token)" if server.token else "off"
    print(f"broker listening on {server.url} "
          f"(store {broker.store.root}, lease {lease_s:.0f}s, auth {auth})")
    if not server.token and host not in ("127.0.0.1", "localhost", "::1"):
        print("warning: non-loopback bind without a token -- anything "
              "that can reach this port can enqueue and complete work; "
              "set REPRO_BROKER_TOKEN (or pass --token)")
    _LOG.info("broker.start", url=server.url, store=str(broker.store.root),
              lease_s=lease_s, auth=bool(server.token))
    try:
        with obs.crash_dump("broker"):
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        _LOG.info("broker.stop")
        server.shutdown()
