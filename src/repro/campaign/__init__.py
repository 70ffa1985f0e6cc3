"""Parallel, fault-tolerant experiment orchestration.

The campaign layer turns the paper's "one simulation campaign feeds
every figure" workflow into infrastructure:

* :class:`GridSpec` -- declarative scheme x workload x parameter grids
  that expand to :class:`RunConfig` lists in a deterministic order;
* :class:`ResultStore` -- a content-addressed on-disk cache of
  :class:`MachineResult`, shared across processes and sessions;
* :func:`run_campaign` -- one task plan and one task function, run in
  this process or over a ``ProcessPoolExecutor`` with stall-watchdog
  timeouts and bounded retry of crashed/hung workers, and a
  completed/cached/failed summary instead of all-or-nothing;
* :func:`map_with_retries` -- the generic robustness layer underneath.

``python -m repro sweep`` is the CLI front door; ``run_matrix`` and the
figure experiments submit their grids here too.
"""

from repro.campaign.executor import (
    CampaignError,
    CampaignResult,
    CampaignSummary,
    RunRecord,
    prescan,
    run_campaign,
    speedup_matrix,
    summarize_records,
)
from repro.campaign.grid import GridSpec
from repro.campaign.pool import Backoff, TaskOutcome, map_with_retries
from repro.campaign.store import (
    ResultStore,
    atomic_write_json,
    default_store_dir,
)

__all__ = [
    "Backoff",
    "CampaignError",
    "CampaignResult",
    "CampaignSummary",
    "GridSpec",
    "ResultStore",
    "RunRecord",
    "TaskOutcome",
    "atomic_write_json",
    "default_store_dir",
    "map_with_retries",
    "prescan",
    "run_campaign",
    "speedup_matrix",
    "summarize_records",
]
