"""Pull-based campaign runner (``python -m repro runner``).

A runner owns no queue state: it claims leased batches from the broker,
executes them through the *existing* :func:`repro.campaign.run_campaign`
machinery -- so a distributed run inherits the pool's crash/hang retry
logic, the deterministic-failure confirmation pass, and PR 5's
same-snapshot-key batching (the broker groups batches by snapshot key,
and every fork amortizes inside this runner's worker processes) -- then
streams the resulting records back and moves on.

Liveness is heartbeats: while a batch runs, a timer thread renews the
runner's leases every third of the lease period (so a single run longer
than the lease cannot get the batch requeued mid-run), and campaign
``progress`` events are additionally forwarded as telemetry heartbeats
(throughput, snapshot/trace cache hit deltas, recent overlap
fractions).  A runner that dies mid-batch simply stops
heartbeating; the broker expires the lease and requeues the batch
elsewhere.  All broker I/O retries with the shared jittered-exponential
:class:`~repro.campaign.pool.Backoff` before giving up.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import threading
import time
from typing import Callable, Optional

from repro import obs
from repro.campaign.executor import run_campaign
from repro.harness.runner import cache_counts
from repro.service.protocol import (
    BrokerClient,
    BrokerUnreachable,
    record_to_item,
)
from repro.telemetry.heartbeat import HeartbeatStats, make_heartbeat

_LOG = obs.get_logger("runner")


def default_runner_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def execute_batch(batch: dict, jobs: int = 1,
                  on_event: Optional[Callable[[str, dict], None]] = None):
    """Run one claimed batch; returns ``(items, cache_counts)``, the
    latter the batch's snapshot and trace cache work.

    The batch's configs go through :func:`run_campaign` with *no*
    result store (the broker owns the store; a runner only computes),
    so quarantine classification happens here -- a deterministic
    failure is reported with status ``quarantined`` and the broker does
    the actual ``put_failure``.  Meta keys it does not read are
    ignored, so batches replayed from an older journal still run.
    """
    from repro.harness.runner import RunConfig

    meta = batch.get("meta") or {}
    configs = [RunConfig.from_dict(c) for c in batch["configs"]]
    campaign = run_campaign(
        configs,
        jobs=jobs,
        store=None,
        timeout=meta.get("timeout"),
        retries=int(meta.get("retries", 1)),
        guard=meta.get("guard"),
        telemetry=meta.get("telemetry"),
        progress=on_event,
    )
    indices = batch["indices"]
    items = [
        record_to_item(rec, indices[rec.index]) for rec in campaign.records
    ]
    return items, campaign.summary.cache_counts()


def runner_loop(
    broker: str,
    jobs: int = 1,
    runner_id: Optional[str] = None,
    poll_s: float = 1.0,
    exit_when_idle: Optional[float] = None,
    max_batches: Optional[int] = None,
    client: Optional[BrokerClient] = None,
    verbose: bool = False,
    stop: Optional[threading.Event] = None,
    give_up_after_s: Optional[float] = 600.0,
    install_signal_handlers: bool = True,
) -> int:
    """Claim-execute-report until stopped; returns batches completed.

    ``exit_when_idle`` (seconds) ends the loop after the broker has had
    no work for that long -- CI and embedded local services use it;
    a long-lived fleet runner omits it and polls forever.
    ``max_batches`` bounds the run for tests.

    Graceful degradation: SIGTERM (when handlers can be installed --
    main thread only) or an externally set ``stop`` event *drains* --
    the in-flight batch finishes and its records are reported before
    the loop returns, so nothing is recomputed elsewhere.  A broker
    that stays unreachable for ``give_up_after_s`` of continuous
    failed claims raises :class:`BrokerUnreachable` instead of backing
    off forever (``None`` disables the limit).
    """
    own_client = client is None
    client = client or BrokerClient(broker)
    rid = runner_id or default_runner_id()
    hb = HeartbeatStats()
    done = 0
    batch_seconds_total = 0.0
    idle_since: Optional[float] = None
    unreachable_since: Optional[float] = None
    stop = stop or threading.Event()

    def _say(msg: str) -> None:
        if verbose:
            print(f"runner {rid}: {msg}", flush=True)

    def _obs_counters() -> dict:
        # getattr: injected test/chaos clients need not carry the counter.
        return {
            "backoff_retries": getattr(client, "retries_total", 0),
            "batch_seconds_total": batch_seconds_total,
            "batches_done": done,
        }

    def _on_sigterm(signum, frame):
        _say("SIGTERM: draining in-flight batch, then exiting")
        _LOG.info("runner.drain", runner_id=rid, reason="SIGTERM")
        stop.set()

    prev_handler = None
    handler_installed = False
    if install_signal_handlers:
        try:
            prev_handler = signal.signal(signal.SIGTERM, _on_sigterm)
            handler_installed = True
        except ValueError:
            pass  # not the main thread (embedded/test runner loops)

    if own_client:
        # Fail fast with the one-line operator error before settling
        # into the claim loop -- `repro runner` against a dead broker
        # must not look like a healthy idle runner.
        client.probe()

    try:
        while (max_batches is None or done < max_batches) \
                and not stop.is_set():
            try:
                grant = client.claim(rid, max_batches=1)
            except BrokerUnreachable:
                if exit_when_idle is not None:
                    # An embedded/CI runner whose broker went away is
                    # done.
                    _say("broker unreachable; exiting")
                    _LOG.warning("broker.unreachable", runner_id=rid)
                    return done
                now = time.monotonic()
                if unreachable_since is None:
                    unreachable_since = now
                if (give_up_after_s is not None
                        and now - unreachable_since >= give_up_after_s):
                    raise
                continue  # claim() already backed off between attempts
            unreachable_since = None
            batches = grant.get("batches", [])
            if not batches:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if (exit_when_idle is not None
                        and now - idle_since >= exit_when_idle):
                    _say(f"idle for {exit_when_idle}s; exiting")
                    return done
                stop.wait(poll_s)
                continue
            idle_since = None
            lease_s = float(grant.get("lease_s") or 60.0)
            for batch in batches:
                _say(f"claimed batch {batch['batch_id']} "
                     f"({len(batch['configs'])} configs)")
                _LOG.info(
                    "batch.claim", runner_id=rid,
                    campaign=batch["campaign_id"],
                    batch_id=batch["batch_id"],
                    configs=len(batch["configs"]),
                    attempt=batch.get("attempt"),
                )
                t0 = time.monotonic()
                last_progress: dict = {}

                def on_event(kind: str, info: dict) -> None:
                    # Forward campaign progress as a broker heartbeat;
                    # a dropped heartbeat is fine (lease grace absorbs
                    # it).
                    last_progress.update(info)
                    hb.observe(completed=info.get("completed", 0))
                    client.heartbeat(rid, make_heartbeat(
                        rid, info, cache_counts(), hb,
                        obs_counters=_obs_counters(),
                    ))

                # Progress events only fire when a task *completes*, so
                # a single task longer than the lease would starve the
                # broker of heartbeats and get the batch requeued (and
                # re-executed elsewhere) mid-run.  A timer thread keeps
                # the lease warm regardless of run length.
                stop_renewal = threading.Event()

                def _renew_lease() -> None:
                    interval = max(0.1, lease_s / 3.0)
                    while not stop_renewal.wait(interval):
                        client.heartbeat(rid, make_heartbeat(
                            rid, dict(last_progress), cache_counts(), hb,
                            obs_counters=_obs_counters(),
                        ))

                renewal = threading.Thread(
                    target=_renew_lease, name=f"lease-renewal-{rid}",
                    daemon=True,
                )
                renewal.start()
                # The batch-run span covers execution AND the complete
                # report: while it is active the client stamps
                # X-Repro-Trace on /complete, which is how the broker
                # parents its ingest span onto this one.
                trace_meta = (batch.get("meta") or {}).get("trace") or {}
                tracer = (
                    obs.service_tracer("runner")
                    if trace_meta.get("trace_id") else None
                )
                span_cm = (
                    tracer.span(
                        "batch-run", str(trace_meta["trace_id"]),
                        parent=(trace_meta.get("claim_span")
                                or trace_meta.get("span_id")),
                        args={
                            "campaign_id": batch["campaign_id"],
                            "batch_id": batch["batch_id"],
                            "runner_id": rid,
                            "configs": len(batch["configs"]),
                        },
                    )
                    if tracer is not None else contextlib.nullcontext()
                )
                with span_cm:
                    try:
                        items, delta = execute_batch(
                            batch, jobs=jobs, on_event=on_event
                        )
                    finally:
                        stop_renewal.set()
                        renewal.join(timeout=10)
                    # Even when stop was requested mid-batch (SIGTERM
                    # drain), the finished batch is reported before the
                    # loop exits -- the work is never thrown away.
                    answer = client.complete(
                        rid, batch["campaign_id"], batch["batch_id"],
                        items, cache_stats=delta,
                    )
                batch_s = time.monotonic() - t0
                batch_seconds_total += batch_s
                done += 1
                _say(f"batch {batch['batch_id']} done: "
                     f"{len(items)} records "
                     f"in {batch_s:.2f}s "
                     f"(accepted={answer.get('accepted')})")
                _LOG.info(
                    "batch.done", runner_id=rid,
                    campaign=batch["campaign_id"],
                    batch_id=batch["batch_id"],
                    items=len(items), seconds=round(batch_s, 3),
                    accepted=answer.get("accepted"),
                )
        if stop.is_set():
            _say(f"stopped after draining; {done} batch(es) completed")
        return done
    finally:
        if handler_installed:
            signal.signal(signal.SIGTERM, prev_handler)
