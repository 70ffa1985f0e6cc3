"""Campaign execution: expand a grid, fan out, merge deterministically.

``run_campaign`` is the one entry point every grid in the repository
goes through -- ``run_matrix``, ``repro sweep``, ``repro compare`` and
the figure experiments all submit here.  It

1. expands the :class:`GridSpec` (or accepts an explicit config list),
2. skips configs the :class:`ResultStore` has quarantined, then serves
   what it can from the in-process memo cache and the store,
3. plans the remainder into tasks once (:func:`_plan_batches`: one run,
   or a batch of runs sharing a machine-snapshot key) and runs every
   task through the one task function :func:`_simulate_payload` -- in
   this process when ``jobs <= 1`` or only one config is pending, else
   over a fault-tolerant process pool with a stall timeout and bounded
   retry of crashed/hung workers,
4. folds the task outcomes into records (the guarded confirmation pass
   goes through the same mapper and the same fold), priming the memo
   cache and the store once per unguarded result, and reports a
   :class:`CampaignSummary` (completed/cached/failed/quarantined +
   cache counters) instead of aborting the whole grid on one bad run.

Failure taxonomy (``RunRecord.failure_kind``): ``timeout`` (the stall
watchdog killed a hung worker), ``crash`` (the run raised or the worker
process died), ``invariant`` (a guarded run tripped a checker, or a
run stopped making forward progress).  A failure observed identically on two
attempts is deterministic: the config is marked ``quarantined``, written
to the store's quarantine (with its diagnostic bundle path), and never
retried past the second attempt -- by this campaign or any later one
sharing the store.

``guard=`` opts the whole campaign into paranoid mode (a
:class:`~repro.guard.GuardConfig` shipped to every run).  Guarded runs
bypass the memo cache and the result store in both directions.
"""

from __future__ import annotations

import json
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign import pool as _pool
from repro.campaign.grid import GridSpec
from repro.harness import runner
from repro.harness.runner import RunConfig
from repro.system.machine import MachineResult

# Record statuses.
COMPLETED = "completed"  # freshly simulated this campaign
CACHED = "cached"  # served from the memo cache or the disk store
FAILED = "failed"  # simulation raised, or worker crashed out of retries
TIMEOUT = "timeout"  # hung out of retries
QUARANTINED = "quarantined"  # failed deterministically; pinned in the store


class CampaignError(RuntimeError):
    """Raised when a caller needs every run and some failed."""


@dataclass
class RunRecord:
    """One grid point's fate."""

    index: int
    config: RunConfig
    status: str
    result: Optional[MachineResult] = None
    source: str = ""  # "memo" | "store" | "simulated"
    error: str = ""
    attempts: int = 0
    failure_kind: str = ""  # "" | "timeout" | "crash" | "invariant"
    bundle_path: str = ""  # diagnostic bundle of a guarded failure
    traceback: str = ""  # formatted traceback (post-mortems without reruns)
    telemetry: Optional[dict] = None  # trace summary of an observed run

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "status": self.status,
            "source": self.source,
            "error": self.error,
            "attempts": self.attempts,
            "failure_kind": self.failure_kind,
            "bundle_path": self.bundle_path,
            "traceback": self.traceback,
            "result": self.result.to_dict() if self.result else None,
            "telemetry": self.telemetry,
        }


@dataclass
class CampaignSummary:
    """What the campaign did, for humans and for ``--json``."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    elapsed_s: float = 0.0
    store: Dict[str, object] = field(default_factory=dict)
    # Per cache layer, the counters (hits, misses, ...) count this
    # campaign's own work, wherever it ran; the gauges (size, maxsize,
    # bytes) are this process's values when the campaign ended.
    memo: Dict[str, int] = field(default_factory=dict)
    snapshot: Dict[str, int] = field(default_factory=dict)
    trace: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "elapsed_s": self.elapsed_s,
            "memo": dict(self.memo),
            "store": dict(self.store),
            "snapshot": dict(self.snapshot),
            "trace": dict(self.trace),
        }

    def cache_counts(self) -> Dict[str, Dict[str, int]]:
        """The shared layers' counters, in the form tasks report them."""
        return {
            section: {k: getattr(self, section).get(k, 0)
                      for k in runner.CACHE_COUNT_KEYS[section]}
            for section in runner.SHARED_CACHES
        }

    def describe(self) -> str:
        head = (
            f"{self.total} runs: {self.completed} simulated, "
            f"{self.cached} cached, {self.failed} failed"
        )
        if self.quarantined:
            head += f", {self.quarantined} quarantined"
        parts = [head + f" in {self.elapsed_s:.2f}s"]
        if self.memo:
            parts.append(
                f"memo cache: {self.memo.get('hits', 0)} hits / "
                f"{self.memo.get('misses', 0)} misses "
                f"({self.memo.get('size', 0)}/{self.memo.get('maxsize', 0)} entries)"
            )
        if self.snapshot:
            parts.append(
                f"snapshot cache: {self.snapshot.get('hits', 0)} forks / "
                f"{self.snapshot.get('misses', 0)} misses "
                f"({self.snapshot.get('stores', 0)} images stored)"
            )
        if self.trace:
            parts.append(
                f"trace cache: {self.trace.get('hits', 0)} hits / "
                f"{self.trace.get('misses', 0)} misses"
            )
        if self.store:
            parts.append(
                f"result store: {self.store.get('hits', 0)} hits / "
                f"{self.store.get('misses', 0)} misses / "
                f"{self.store.get('writes', 0)} writes at {self.store.get('root', '')}"
            )
        return "\n".join(parts)


class CampaignResult:
    """Ordered records plus the summary."""

    def __init__(self, records: List[RunRecord], summary: CampaignSummary):
        self.records = records
        self.summary = summary

    @property
    def ok(self) -> bool:
        return all(r.status in (COMPLETED, CACHED) for r in self.records)

    def failures(self) -> List[RunRecord]:
        return [r for r in self.records if r.status not in (COMPLETED, CACHED)]

    def results(self) -> List[Optional[MachineResult]]:
        return [r.result for r in self.records]

    def as_matrix(self) -> Dict[Tuple[str, str], MachineResult]:
        """``{(scheme, workload): result}``; raises on failures/collisions."""
        bad = self.failures()
        if bad:
            detail = "; ".join(
                f"{r.config.scheme}/{r.config.workload}: {r.status} ({r.error})"
                for r in bad[:5]
            )
            raise CampaignError(f"{len(bad)} campaign run(s) failed: {detail}")
        out: Dict[Tuple[str, str], MachineResult] = {}
        for rec in self.records:
            key = (rec.config.scheme, rec.config.workload)
            if key in out:
                raise CampaignError(
                    f"grid has multiple runs per {key}; use .records instead "
                    f"of .as_matrix()"
                )
            out[key] = rec.result
        return out

    def to_dict(self) -> dict:
        return {
            "runs": [r.to_dict() for r in self.records],
            "summary": self.summary.to_dict(),
        }


# ---------------------------------------------------------------------------
# Failure classification helpers
# ---------------------------------------------------------------------------

def _failure_info(exc: BaseException) -> Dict[str, str]:
    """Flatten an exception into the transportable failure taxonomy."""
    return {
        "failure_kind": getattr(exc, "failure_kind", "crash"),
        "error": f"{type(exc).__name__}: {exc}",
        "checker": str(getattr(exc, "checker", "") or ""),
        "bundle_path": str(getattr(exc, "bundle_path", "") or ""),
        "traceback": "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _same_failure(a: Dict[str, str], b: Dict[str, str]) -> bool:
    """Two attempts failed "the same way": kind, checker, and exception
    type all match (messages may carry run-varying detail)."""
    return (
        a.get("failure_kind") == b.get("failure_kind")
        and a.get("checker") == b.get("checker")
        and a.get("error", "").split(":", 1)[0]
        == b.get("error", "").split(":", 1)[0]
    )


def _quarantine(store, cfg: RunConfig, info: Dict[str, str]) -> None:
    if store is not None and hasattr(store, "put_failure"):
        store.put_failure(cfg, info)


def _failed_record(index: int, cfg: RunConfig, status: str,
                   info: Dict[str, str], attempts: int,
                   source: str = "") -> RunRecord:
    return RunRecord(
        index, cfg, status,
        source=source,
        error=info.get("error", ""),
        attempts=attempts,
        failure_kind=info.get("failure_kind", ""),
        bundle_path=info.get("bundle_path", ""),
        traceback=info.get("traceback", ""),
    )


# ---------------------------------------------------------------------------
# Task function (pool workers and inline tasks alike)
# ---------------------------------------------------------------------------

# Shared with repro.service runners; see harness.runner.
_cache_counts = runner.thread_cache_counts
_cache_delta = runner.cache_delta
_merge_counts = runner.merge_cache_counts


def _simulate_payload(payload: dict) -> dict:
    """Run one campaign task: dict in, dict out (keeps transport JSON-clean).

    A task is ``{"__batch__": [item, ...]}``, one config payload per
    run.  :func:`_plan_batches` gives the runs of a task one
    machine-snapshot key, so the first builds and the rest fork this
    process's snapshot cache; a run snapshots its build only when a
    later run of its task can fork it, so a task of one never dumps.
    Each run's exception comes back as its own ``__failure__`` entry, so
    one bad config cannot poison its siblings and every failure keeps
    its own kind.

    An item's ``__guard__`` key (a serialized GuardConfig) arms paranoid
    mode; its ``__telemetry__`` key (a serialized TelemetryConfig) arms
    observability, and the trace summary rides back under the same
    out-of-band key, keeping ``MachineResult`` itself untouched.

    Every run simulates: the task never consults the memo cache or the
    result store (the caller's prescan already did, once per config, and
    its fold primes both once per result), so the cache counters a
    campaign reports do not depend on where its tasks ran.  A config
    listed twice in one task simulates once; the repeat copies the
    first result.  The task reports its snapshot and trace cache counter
    deltas under ``__cache_stats__``.
    """
    batch = payload["__batch__"]
    before = _cache_counts()
    results = []
    done: Dict[str, dict] = {}
    for k, item in enumerate(batch):
        key = json.dumps(item, sort_keys=True)
        if key in done:
            results.append(dict(done[key]))
            continue
        try:
            out = _simulate_one(dict(item), prime_snapshots=k < len(batch) - 1)
        except Exception as exc:
            out = {"__failure__": _failure_info(exc)}
        else:
            done[key] = out
        results.append(out)
    return {
        "__batch__": results,
        "__cache_stats__": _cache_delta(before, _cache_counts()),
    }


def _simulate_one(payload: dict, prime_snapshots: bool) -> dict:
    guard_dict = payload.pop("__guard__", None)
    tel_dict = payload.pop("__telemetry__", None)
    cfg = RunConfig.from_dict(payload)
    guard_cfg = tel_obj = None
    if guard_dict is not None:
        from repro.guard import GuardConfig

        guard_cfg = GuardConfig.from_dict(guard_dict)
    if tel_dict is not None:
        from repro.telemetry import Telemetry, TelemetryConfig

        tel_obj = Telemetry(TelemetryConfig.from_dict(tel_dict))
    result, _machine = runner.simulate(
        cfg, guard=guard_cfg, telemetry=tel_obj,
        prime_snapshots=prime_snapshots,
    )
    out = result.to_dict()
    if tel_obj is not None:
        out["__telemetry__"] = tel_obj.summary
    return out


def _map_inline(tasks: List[dict], on_event=None) -> List[_pool.TaskOutcome]:
    """Run *tasks* one after another in this process.

    The in-process twin of :func:`~repro.campaign.pool.map_with_retries`:
    the same outcomes and one ``done`` event per task, but no worker, so
    the caller's snapshot and trace caches stay warm and its profilers
    see every span.  ``timeout`` and ``retries`` do not apply.
    """
    outcomes = []
    for n, task in enumerate(tasks):
        outcomes.append(_pool.TaskOutcome(
            index=n, status=_pool.OK, value=_simulate_payload(task),
            attempts=1,
        ))
        if on_event is not None:
            on_event("done", {
                "completed": n + 1,
                "outstanding": len(tasks) - n - 1,
                "total": len(tasks),
            })
    return outcomes


def _record_pool_failure(index: int, cfg: RunConfig, outcome, store,
                         extra_attempts: int = 0) -> RunRecord:
    attempts = outcome.attempts + extra_attempts
    info = {
        "failure_kind": "timeout" if outcome.status == _pool.TIMEOUT else "crash",
        "error": outcome.error,
        "checker": "",
        "bundle_path": "",
        "traceback": outcome.traceback,
    }
    if outcome.status == _pool.TIMEOUT:
        return _failed_record(index, cfg, TIMEOUT, info, attempts)
    if outcome.status == _pool.CRASHED and attempts >= 2:
        # Crashed on every attempt: deterministic, quarantine it.
        _quarantine(store, cfg, info)
        return _failed_record(index, cfg, QUARANTINED, info, attempts)
    return _failed_record(index, cfg, FAILED, info, attempts)


def _plan_batches(pending: List[int], configs: Sequence[RunConfig],
                  jobs: int, batching: bool) -> List[List[int]]:
    """Partition pending grid indices into campaign tasks.

    Runs sharing a machine-snapshot key are grouped (the first run of a
    group builds+snapshots, the rest fork), but each group is chunked so
    a sweep with few distinct keys still spreads across all ``jobs``
    workers; with ``jobs <= 1`` a key's pending configs form one task.
    Chunks hold at least two runs, so a config whose key no other
    pending config shares is exactly a singleton task, and a task (or a
    service runner, which plans its batch the same way) snapshots a
    build only when a later run of its task can fork it.  Ineligible
    configs stay singleton tasks.  Groups are submitted in grid order of
    their first member, and records are merged by index, so batching
    never perturbs output order.
    """
    if not batching:
        return [[i] for i in pending]
    from repro.snapshot import snapshot_eligible, snapshot_key

    by_key: Dict[str, List[int]] = {}
    groups: List[List[int]] = []
    for i in pending:
        if snapshot_eligible(configs[i]):
            by_key.setdefault(snapshot_key(configs[i]), []).append(i)
        else:
            groups.append([i])
    # ceil(pending/jobs): with this chunk bound even a single-key sweep
    # produces >= jobs tasks.
    max_chunk = max(2, -(-len(pending) // max(1, jobs)))
    for members in by_key.values():
        n = len(members)
        chunks = max(1, min(-(-n // max_chunk), n // 2))
        for c in range(chunks):
            groups.append(members[c * n // chunks:(c + 1) * n // chunks])
    groups.sort(key=lambda g: g[0])
    return groups


# ---------------------------------------------------------------------------
# Shared campaign building blocks (run_campaign + repro.service)
# ---------------------------------------------------------------------------

def prescan(
    configs: Sequence[RunConfig],
    records: List[Optional[RunRecord]],
    store,
    skip_caches: bool = False,
) -> List[int]:
    """Resolve every config the caches already answer; return the rest.

    Fills ``records`` in place with QUARANTINED records for configs the
    store has pinned and CACHED records for memo/store hits (unless
    ``skip_caches`` -- guarded/observed campaigns always simulate).
    The returned indices are the still-pending work, in grid order.
    This is the resume primitive: a distributed campaign re-running
    after a broker restart prescans against the same store and only
    re-enqueues what is missing.
    """
    # cached_result() consults the module-installed store; install the
    # one we were handed so standalone callers (the distributed
    # coordinator) see store hits, not just run_campaign's own flow.
    prev_store = runner.set_result_store(store)
    try:
        pending: List[int] = []
        for i, cfg in enumerate(configs):
            if store is not None and hasattr(store, "get_failure"):
                known = store.get_failure(cfg)
                if known:
                    records[i] = _failed_record(
                        i, cfg, QUARANTINED, known, attempts=0, source="store"
                    )
                    continue
            if not skip_caches:
                result, source = runner.cached_result(cfg)
                if result is not None:
                    records[i] = RunRecord(
                        i, cfg, CACHED, result, source=source
                    )
                    continue
            pending.append(i)
        return pending
    finally:
        runner.set_result_store(prev_store)


def summarize_records(
    records: List[RunRecord],
    elapsed_s: float,
    store,
    counts: Dict[str, Dict[str, int]],
) -> CampaignSummary:
    """Fold finished records plus cache counters into a summary.

    ``counts`` is the campaign's own cache work, in
    :func:`~repro.harness.runner.cache_counts` form: how far this
    process's counters moved plus the deltas pool workers or service
    runners reported.  A counter it lacks reads 0.  The gauges are
    read now.
    """
    caches = runner.cache_stats()
    for section, keys in runner.CACHE_COUNT_KEYS.items():
        mine = counts.get(section, {})
        caches[section].update({k: mine.get(k, 0) for k in keys})
    return CampaignSummary(
        total=len(records),
        completed=sum(r.status == COMPLETED for r in records),
        cached=sum(r.status == CACHED for r in records),
        failed=sum(r.status in (FAILED, TIMEOUT) for r in records),
        quarantined=sum(r.status == QUARANTINED for r in records),
        elapsed_s=elapsed_s,
        memo=caches["memo"],
        snapshot=caches["snapshot"],
        trace=caches["trace"],
        store=store.stats() if store is not None else {},
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _as_campaign_telemetry(telemetry):
    """Normalize ``telemetry=`` to a TelemetryConfig (or None).

    ``True`` selects the campaign default categories -- everything but
    the per-burst ``dram`` spans, which are too hot for a whole sweep.
    """
    if telemetry is None or telemetry is False:
        return None
    from repro.telemetry import DEFAULT_CAMPAIGN_CATEGORIES, TelemetryConfig

    if isinstance(telemetry, TelemetryConfig):
        return telemetry
    if isinstance(telemetry, dict):
        return TelemetryConfig.from_dict(telemetry)
    if telemetry is True:
        return TelemetryConfig(categories=DEFAULT_CAMPAIGN_CATEGORIES)
    raise TypeError(
        f"campaign telemetry must be None, bool, dict, or TelemetryConfig, "
        f"not {type(telemetry).__name__}"
    )


def _as_campaign_guard(guard):
    """Normalize ``guard=`` to a GuardConfig (or None).

    ``True`` selects the default config, a ``Guard`` contributes its
    config, and a dict is a serialized ``GuardConfig`` -- the form a
    distributed campaign's batch meta carries to its runners.
    """
    if guard is None or guard is False:
        return None
    from repro.guard import Guard, GuardConfig

    if isinstance(guard, GuardConfig):
        return guard
    if isinstance(guard, Guard):
        return guard.config
    if isinstance(guard, dict):
        return GuardConfig.from_dict(guard)
    if guard is True:
        return GuardConfig()
    raise TypeError(
        f"campaign guard must be None, bool, dict, GuardConfig, or Guard, "
        f"not {type(guard).__name__}"
    )


def _as_progress(progress):
    """Normalize ``progress=`` to an ``on_event(kind, info)`` callable."""
    if progress is None or progress is False:
        return None
    if progress is True:
        import sys

        def _print(kind: str, info: dict) -> None:
            print(
                f"campaign: {info['completed']}/{info['total']} done, "
                f"{info['outstanding']} running"
                + (" (heartbeat)" if kind == "heartbeat" else ""),
                file=sys.stderr,
            )

        return _print
    return progress


def run_campaign(
    grid: Union[GridSpec, Iterable[RunConfig]],
    jobs: int = 1,
    store=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    guard=None,
    telemetry=None,
    progress=None,
) -> CampaignResult:
    """Execute every run of *grid*; never raises for individual runs.

    ``store=None`` uses the globally installed result store (if any);
    pass a :class:`ResultStore` to use -- and install for the duration --
    a specific one.  ``guard`` (``True``, a ``GuardConfig``, a ``Guard``
    or a ``GuardConfig`` dict) runs the whole campaign in paranoid mode.

    Tasks run in this process when ``jobs <= 1`` or only one config is
    pending, else over ``jobs`` worker processes.  ``timeout`` (seconds
    per run without a finished task before a worker counts as hung) and
    ``retries`` (extra attempts for crashed or hung workers) apply to
    pool tasks only.

    ``telemetry`` (``True`` or a ``TelemetryConfig``) observes every
    simulated run; each record carries the trace summary in
    ``RunRecord.telemetry``.  Telemetry runs always simulate (a cached
    result has no trace), but their results still prime the caches when
    unguarded.  ``progress`` (``True`` for a stderr printer, or a
    callable) reports a ``done`` event per finished task, plus
    ``heartbeat`` events while a pool campaign drains.
    """
    t0 = time.monotonic()
    since = _cache_counts(runner.CACHE_COUNT_KEYS)
    configs = grid.expand() if isinstance(grid, GridSpec) else list(grid)
    records: List[Optional[RunRecord]] = [None] * len(configs)
    guard_cfg = _as_campaign_guard(guard)
    tel_cfg = _as_campaign_telemetry(telemetry)
    observed = guard_cfg is not None or tel_cfg is not None
    on_event = _as_progress(progress)

    effective_store = store if store is not None else runner.get_result_store()
    prev_store = runner.set_result_store(effective_store)
    # Worker-reported amortization-cache counter deltas (pool tasks).
    pool_caches: Dict[str, Dict[str, int]] = {}
    try:
        pending = prescan(configs, records, effective_store,
                          skip_caches=observed)
        inline = jobs <= 1 or len(pending) <= 1
        # Plain campaigns batch same-key runs so they fork one build;
        # guarded/observed runs keep tasks of one (their confirmation
        # pass needs run granularity).
        groups = _plan_batches(pending, configs, jobs, batching=not observed)
        run_keys = {}
        if guard_cfg is not None:
            run_keys["__guard__"] = guard_cfg.to_dict()
        if tel_cfg is not None:
            run_keys["__telemetry__"] = tel_cfg.to_dict()

        def _map(groups: List[List[int]], retries: int):
            tasks = [{"__batch__": [{**configs[i].to_dict(), **run_keys}
                                    for i in group]}
                     for group in groups]
            if inline:
                return _map_inline(tasks, on_event)
            # The stall watchdog sees one completion per *task*; a batch
            # is one task doing len(batch) runs, so scale its budget.
            longest = max(len(g) for g in groups)
            return _pool.map_with_retries(
                _simulate_payload, tasks, jobs=jobs,
                timeout=timeout * longest if timeout is not None else None,
                retries=retries,
                heartbeat=2.0 if on_event is not None else None,
                on_event=on_event,
            )

        def _fold(groups, outcomes, first) -> Dict[int, Tuple[dict, int]]:
            """Fill the records of finished tasks.  ``first`` maps the
            runs of a confirmation pass to their first failure and
            attempts; returns the guarded failures still to confirm."""
            confirm: Dict[int, Tuple[dict, int]] = {}
            for group, outcome in zip(groups, outcomes):
                if not outcome.ok:
                    for i in group:
                        records[i] = _record_pool_failure(
                            i, configs[i], outcome, effective_store,
                            extra_attempts=first.get(i, (None, 0))[1],
                        )
                    continue
                if not inline:  # inline counts are already this process's
                    _merge_counts(pool_caches,
                                  outcome.value["__cache_stats__"])
                for i, item in zip(group, outcome.value["__batch__"]):
                    cfg = configs[i]
                    earlier, attempts = first.get(i, (None, 0))
                    attempts += outcome.attempts
                    failure = item.get("__failure__")
                    if failure is None:
                        telemetry_summary = item.pop("__telemetry__", None)
                        result = MachineResult.from_dict(item)
                        if guard_cfg is None:
                            runner.prime(cfg, result)
                        records[i] = RunRecord(
                            i, cfg, COMPLETED, result,
                            source="simulated", attempts=attempts,
                            error=(f"transient failure on first attempt: "
                                   f"{earlier['error']}" if earlier else ""),
                            telemetry=telemetry_summary,
                        )
                    elif earlier is None and guard_cfg is not None:
                        confirm[i] = (failure, attempts)
                    elif earlier is not None and _same_failure(earlier,
                                                               failure):
                        _quarantine(effective_store, cfg, failure)
                        records[i] = _failed_record(
                            i, cfg, QUARANTINED, failure, attempts
                        )
                    else:
                        records[i] = _failed_record(
                            i, cfg, FAILED, failure, attempts
                        )
            return confirm

        confirm = _fold(groups, _map(groups, retries), {})
        if confirm:
            # A guarded failure gets exactly one confirmation attempt:
            # the same failure again quarantines, anything else does not.
            again = [[i] for i in confirm]
            _fold(again, _map(again, 0), confirm)
    finally:
        runner.set_result_store(prev_store)

    done = [r for r in records if r is not None]
    counts = _cache_delta(since, _cache_counts(runner.CACHE_COUNT_KEYS))
    _merge_counts(counts, pool_caches)
    summary = summarize_records(
        done, time.monotonic() - t0, effective_store, counts
    )
    return CampaignResult(done, summary)


def speedup_matrix(
    schemes: Sequence[str],
    workloads: Sequence[str],
    base: Optional[RunConfig] = None,
    baseline: str = "baseline",
    jobs: int = 1,
    store=None,
) -> Dict[Tuple[str, str], Tuple[MachineResult, float]]:
    """The shared scheme-comparison helper.

    Runs ``[baseline] + schemes`` on every workload through the campaign
    layer and returns ``{(scheme, workload): (result, ipc_rel)}`` where
    ``ipc_rel`` is IPC relative to *baseline* on the same workload.
    Both ``repro compare`` and the Fig. 9 experiment build their
    baseline-relative columns from this instead of hand-rolled loops.
    """
    ordered = list(dict.fromkeys([baseline, *schemes]))
    matrix = runner.run_matrix(ordered, workloads, base, jobs=jobs, store=store)
    out: Dict[Tuple[str, str], Tuple[MachineResult, float]] = {}
    for wl in workloads:
        ref = matrix[(baseline, wl)]
        for scheme in ordered:
            result = matrix[(scheme, wl)]
            out[(scheme, wl)] = (result, result.speedup_over(ref))
    return out
