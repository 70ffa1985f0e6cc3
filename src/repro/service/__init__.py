"""Distributed campaign service: broker, pull-based runners, index.

The service layer scales :func:`repro.campaign.run_campaign` past one
host's process pool, with zero new dependencies (stdlib ``http.server``,
``urllib``, ``sqlite3``):

* :class:`~repro.service.broker.Broker` -- owns a durable work queue of
  serialized :class:`RunConfig` batches, leases them to runners, and
  ingests results into the content-addressed
  :class:`~repro.campaign.store.ResultStore` plus a queryable SQLite
  :class:`~repro.service.index.ResultIndex`;
* :func:`~repro.service.runner.runner_loop` -- a pull-based worker
  (``python -m repro runner``) that claims batches, executes them
  through the existing ``run_campaign`` machinery (same snapshot-fork
  and trace-cache amortization), and streams records + telemetry
  heartbeats back;
* :func:`~repro.service.coordinator.run_distributed_campaign` -- the
  queue-backed executor path behind ``repro sweep --distributed``,
  resumable via the store (``--resume``);
* :mod:`~repro.service.journal` -- append-only, fsynced log of each
  campaign's manifest and batch state transitions, the broker's only
  durable campaign record; a restarted broker replays it and resumes
  mid-campaign with no coordinator prescan;
* :mod:`~repro.service.chaos` -- seeded fault injection (network,
  HTTP, disk, process) proving convergence under every schedule
  (``repro chaos``);
* :mod:`~repro.service.scrub` -- store verification + index repair
  (``repro scrub``).

Everything speaks the JSON protocol in :mod:`repro.service.protocol`
and is fully testable with broker + runners on localhost.
"""

from repro.service.broker import Broker, BrokerServer, serve_broker
from repro.service.chaos import (
    ChaosKill,
    FaultPlan,
    FaultSpec,
    FaultyFS,
    faulty_fs,
    run_chaos_campaign,
    stores_identical,
)
from repro.service.coordinator import local_service, run_distributed_campaign
from repro.service.index import ResultIndex
from repro.service.journal import Journal
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BrokerClient,
    BrokerError,
    BrokerUnreachable,
    batch_id_for,
)
from repro.service.runner import runner_loop
from repro.service.scrub import load_scrub_report, scrub_store

__all__ = [
    "PROTOCOL_VERSION",
    "Broker",
    "BrokerClient",
    "BrokerError",
    "BrokerServer",
    "BrokerUnreachable",
    "ChaosKill",
    "FaultPlan",
    "FaultSpec",
    "FaultyFS",
    "Journal",
    "ResultIndex",
    "batch_id_for",
    "faulty_fs",
    "load_scrub_report",
    "local_service",
    "run_chaos_campaign",
    "run_distributed_campaign",
    "runner_loop",
    "scrub_store",
    "serve_broker",
    "stores_identical",
]
