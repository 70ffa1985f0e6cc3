"""Queue-backed campaign execution (``repro sweep --distributed``).

The coordinator is ``run_campaign``'s distributed twin, built from the
same campaign primitives:

1. expand the grid (or, for ``--resume``, reload the manifest the
   broker journaled), :func:`~repro.campaign.executor.prescan` against the
   shared :class:`ResultStore` -- quarantined and already-stored
   configs resolve locally and are **not** re-enqueued, which is what
   makes campaigns resumable across broker and runner restarts;
2. plan batches with the pool's snapshot-key grouping
   (:func:`~repro.campaign.executor._plan_batches`) so each runner
   amortizes machine forks, give every batch a content-addressed id,
   and submit to the broker (idempotent -- re-submitting pending work
   dedupes);
3. poll broker status, forwarding progress events, until every
   submitted batch is done;
4. pull the records back, merge by grid index, and return an ordinary
   :class:`~repro.campaign.CampaignResult` -- callers cannot tell the
   difference from a pool campaign (and the results are bit-identical;
   CI pins that).

:func:`local_service` spins up an in-process broker plus N runner
subprocesses on localhost, so ``repro sweep --distributed`` works with
no pre-existing service -- the CI smoke job and the tests drive the
same path with an external broker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import uuid
from contextlib import contextmanager, nullcontext as _null_cm
from typing import Iterable, List, Optional, Union

from repro import obs
from repro.campaign.executor import (
    CampaignResult,
    RunRecord,
    _as_campaign_guard,
    _as_campaign_telemetry,
    _as_progress,
    _plan_batches,
    prescan,
    summarize_records,
)
from repro.campaign.grid import GridSpec
from repro.harness.runner import (
    RunConfig,
    cache_delta,
    merge_cache_counts,
    thread_cache_counts,
)
from repro.service.protocol import (
    BrokerClient,
    BrokerError,
    BrokerUnreachable,
    batch_id_for,
)
from repro.system.machine import MachineResult

_LOG = obs.get_logger("coordinator")


def new_campaign_id() -> str:
    return f"c{uuid.uuid4().hex[:12]}"


def _record_from_item(index: int, cfg: RunConfig, item: dict) -> RunRecord:
    result = item.get("result")
    return RunRecord(
        index=index,
        config=cfg,
        status=item.get("status", "failed"),
        result=MachineResult.from_dict(result) if result else None,
        source=item.get("source", ""),
        error=item.get("error", ""),
        attempts=int(item.get("attempts", 0)),
        failure_kind=item.get("failure_kind", ""),
        bundle_path=item.get("bundle_path", ""),
        traceback=item.get("traceback", ""),
        telemetry=item.get("telemetry"),
    )


def run_distributed_campaign(
    grid: Union[GridSpec, Iterable[RunConfig], None],
    broker: str,
    store,
    campaign_id: Optional[str] = None,
    resume: bool = False,
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: int = 1,
    guard=None,
    telemetry=None,
    progress=None,
    poll_s: float = 0.25,
    max_wait_s: Optional[float] = None,
    client: Optional[BrokerClient] = None,
) -> CampaignResult:
    """Drain *grid* through a broker's runner fleet.

    ``store`` must be the same store directory the broker ingests into
    (a shared filesystem on multi-host setups): the prescan against it
    is both the cache layer and the resume mechanism.  ``jobs`` is the
    expected fleet-wide worker-slot count -- it only tunes batch
    chunking, not any local parallelism.  With ``resume=True`` the grid
    may be ``None``; the config list is reloaded from the campaign's
    journaled manifest.  ``client`` overrides the default
    :class:`BrokerClient` (the chaos harness injects fault-wired ones).

    An unreachable broker fails fast (one probe, no retry storm) before
    any work is planned; a broker that goes away *mid-drain* is ridden
    out -- the journal-backed broker comes back with its queue intact,
    so the coordinator just keeps polling until ``max_wait_s``.
    """
    t0 = time.monotonic()
    client = client or BrokerClient(broker)
    client.probe()
    cid = campaign_id or new_campaign_id()

    guard_cfg = _as_campaign_guard(guard)
    tel_cfg = _as_campaign_telemetry(telemetry)
    observed = guard_cfg is not None or tel_cfg is not None
    on_event = _as_progress(progress)

    if resume:
        manifest = client.manifest(cid)
        configs = [
            RunConfig.from_dict(c) for c in manifest.get("configs", [])
        ]
        if not configs:
            raise BrokerError(f"campaign {cid!r} has an empty manifest")
    elif grid is None:
        raise ValueError("run_distributed_campaign needs a grid or resume=True")
    else:
        configs = grid.expand() if isinstance(grid, GridSpec) else list(grid)

    # One trace id per campaign: every broker/runner span of this
    # submission hangs off the campaign span opened here.  The span is
    # closed on the success path; a coordinator crash leaves it open and
    # merge_service_traces closes it as truncated.
    tracer = obs.service_tracer("coordinator")
    campaign_span = None
    trace_meta = None
    if tracer is not None:
        trace_id = obs.new_trace_id()
        campaign_span = tracer.span(
            "campaign", trace_id,
            args={"campaign_id": cid, "configs": len(configs)},
        ).begin()
        trace_meta = {"trace_id": trace_id,
                      "span_id": campaign_span.span_id}

    records: List[Optional[RunRecord]] = [None] * len(configs)
    # The coordinator simulates nothing: its own cache work is the
    # prescan's memo lookups, and the snapshot and trace counts come
    # from the broker, which sums what the runners reported.
    memo_before = thread_cache_counts(["memo"])
    pending = prescan(configs, records, store, skip_caches=observed)
    counts = cache_delta(memo_before, thread_cache_counts(["memo"]))

    submitted: List[str] = []
    if pending:
        groups = _plan_batches(pending, configs, jobs, batching=not observed)
        meta = {
            "timeout": timeout,
            "retries": retries,
            "guard": guard_cfg.to_dict() if guard_cfg is not None else None,
            "telemetry": tel_cfg.to_dict() if tel_cfg is not None else None,
        }
        if trace_meta is not None:
            meta["trace"] = dict(trace_meta)
        batches = []
        for group in groups:
            payloads = [configs[i].to_dict() for i in group]
            batches.append({
                "batch_id": batch_id_for(cid, payloads),
                "indices": list(group),
                "configs": payloads,
            })
        submitted = [b["batch_id"] for b in batches]
        _LOG.info(
            "campaign.plan", campaign=cid, configs=len(configs),
            pending=len(pending), batches=len(batches),
        )
        enqueue_cm = (
            tracer.span(
                "enqueue", trace_meta["trace_id"],
                parent=trace_meta["span_id"],
                args={"campaign_id": cid, "batches": len(batches)},
            )
            if tracer is not None else _null_cm()
        )
        with enqueue_cm:
            client.enqueue(
                cid, batches, meta,
                manifest=[c.to_dict() for c in configs],
            )

        # Drain: poll until every batch this submission covers is done.
        last_done = -1
        last_beat = time.monotonic()
        while True:
            try:
                status = client.status(cid)
            except BrokerUnreachable:
                # A restarting broker (crash recovery, redeploy) is a
                # transient outage, not a failed campaign: it replays
                # its journal and picks up where it stopped.  Keep
                # polling until the overall deadline says otherwise.
                if (max_wait_s is not None
                        and time.monotonic() - t0 > max_wait_s):
                    raise
                time.sleep(poll_s)
                continue
            campaign = status.get("campaigns", {}).get(cid, {})
            done = int(campaign.get("done", 0))
            total = int(campaign.get("batches", len(submitted)))
            if on_event is not None:
                now = time.monotonic()
                if done != last_done or now - last_beat >= 2.0:
                    runs_done = int(campaign.get("runs_done", 0))
                    on_event("done" if done != last_done else "heartbeat", {
                        "completed": runs_done,
                        "outstanding": max(0, len(pending) - runs_done),
                        "total": len(pending),
                    })
                    last_done = done
                    last_beat = now
            if done >= total:
                break
            if (max_wait_s is not None
                    and time.monotonic() - t0 > max_wait_s):
                raise BrokerError(
                    f"campaign {cid!r} did not converge within "
                    f"{max_wait_s}s ({done}/{total} batches)"
                )
            time.sleep(poll_s)

        for item in client.records(cid):
            i = int(item["index"])
            if records[i] is None:  # don't clobber prescan resolutions
                records[i] = _record_from_item(i, configs[i], item)

    done_records = [r for r in records if r is not None]
    try:
        status = client.status(cid)
        merge_cache_counts(
            counts,
            status.get("campaigns", {}).get(cid, {}).get("cache_counts", {}),
        )
    except BrokerError:
        pass
    summary = summarize_records(
        done_records, time.monotonic() - t0, store, counts
    )
    _LOG.info(
        "campaign.done", campaign=cid, records=len(done_records),
        seconds=round(time.monotonic() - t0, 3),
    )
    if campaign_span is not None:
        campaign_span.end(records=len(done_records))
    result = CampaignResult(done_records, summary)
    result.campaign_id = cid  # type: ignore[attr-defined]
    return result


@contextmanager
def local_service(
    store_root,
    runners: int = 2,
    jobs_per_runner: int = 1,
    lease_s: float = 60.0,
    exit_when_idle: float = 10.0,
):
    """An ephemeral localhost service: in-process broker + runner procs.

    Yields the broker URL.  Runner subprocesses inherit this process's
    ``sys.path`` (via ``PYTHONPATH``) so source checkouts work without
    installation; they exit on their own once the broker goes away or
    the queue stays empty for ``exit_when_idle`` seconds.
    """
    from repro.service.broker import Broker, BrokerServer

    broker = Broker(store_root, lease_s=lease_s)
    server = BrokerServer(broker).start()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in sys.path if p] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(max(1, runners)):
            procs.append(subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "runner",
                    "--broker", server.url,
                    "--jobs", str(jobs_per_runner),
                    "--exit-when-idle", str(exit_when_idle),
                    "--poll", "0.2",
                ],
                env=env,
            ))
        yield server.url
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        server.shutdown()
