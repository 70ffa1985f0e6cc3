"""Campaign execution: expand a grid, fan out, merge deterministically.

``run_campaign`` is the one entry point every grid in the repository
goes through -- ``run_matrix``, ``repro sweep``, ``repro compare`` and
the figure experiments all submit here.  It

1. expands the :class:`GridSpec` (or accepts an explicit config list),
2. skips configs the :class:`ResultStore` has quarantined, then serves
   what it can from the in-process memo cache and the store,
3. runs the remainder serially (``jobs <= 1``) or over a fault-tolerant
   process pool (``jobs > 1``), with per-campaign stall timeout and
   bounded retry of crashed/hung workers,
4. merges results back in grid order and reports a
   :class:`CampaignSummary` (completed/cached/failed/quarantined +
   cache counters) instead of aborting the whole grid on one bad run.

Failure taxonomy (``RunRecord.failure_kind``): ``timeout`` (the stall
watchdog killed a hung worker), ``crash`` (the run raised or the worker
process died), ``invariant`` (a guarded run tripped a checker or the
forward-progress watchdog).  A failure observed identically on two
attempts is deterministic: the config is marked ``quarantined``, written
to the store's quarantine (with its diagnostic bundle path), and never
retried past the second attempt -- by this campaign or any later one
sharing the store.

``guard=`` opts the whole campaign into paranoid mode (a
:class:`~repro.guard.GuardConfig` shipped to every run).  Guarded runs
bypass the memo cache and the result store in both directions.
"""

from __future__ import annotations

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
    memo: Dict[str, int] = field(default_factory=dict)
    store: Dict[str, object] = field(default_factory=dict)
    # Machine-snapshot and trace-cache counters: the in-process view
    # plus, for pool campaigns, the summed per-task worker deltas.
    snapshot: Dict[str, int] = field(default_factory=dict)
    trace: Dict[str, object] = field(default_factory=dict)

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
            line = (
                f"trace cache: {self.trace.get('hits', 0)} hits / "
                f"{self.trace.get('misses', 0)} misses"
            )
            if self.trace.get("disk_hits", 0) or self.trace.get("disk_dir"):
                line += f" / {self.trace.get('disk_hits', 0)} disk hits"
            parts.append(line)
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
# Pool worker
# ---------------------------------------------------------------------------

# Shared with repro.service runners; see harness.runner.
_cache_counts = runner.cache_counts
_cache_delta = runner.cache_delta
_merge_counts = runner.merge_cache_counts


def _simulate_payload(payload: dict) -> dict:
    """Pool worker: dict in, dict out (keeps transport JSON-clean).

    A ``__guard__`` key (a serialized GuardConfig) arms paranoid mode;
    guard failures come back as a structured ``__failure__`` value
    rather than an exception, so the pool does not burn its crash-retry
    budget on deterministic invariant violations.  A ``__telemetry__``
    key (a serialized TelemetryConfig) arms observability; the trace
    summary rides back under the same out-of-band key, keeping
    ``MachineResult`` itself untouched.

    A ``__batch__`` key carries a list of config payloads that share a
    machine-snapshot key: running them sequentially in one worker means
    the first run builds+snapshots and the rest fork from this process's
    snapshot cache.  Per-item exceptions come back as ``__failure__``
    entries so one bad config cannot poison its batch siblings.  A
    single payload never snapshots its build: :func:`_plan_batches`
    gives every config whose key another pending config shares a batch.
    Either way the worker reports its amortization-cache counter deltas
    under ``__cache_stats__``.  An ``__amortize__`` key (e.g.
    ``{"trace_dir": ...}``) points this worker at the shared on-disk
    trace cache; it is idempotent, so every payload of a campaign
    carries it.
    """
    payload = dict(payload)
    amortize = payload.pop("__amortize__", None)
    if amortize and amortize.get("trace_dir"):
        from repro.workloads.synthetic import configure_trace_cache

        configure_trace_cache(disk_dir=amortize["trace_dir"])
    batch = payload.pop("__batch__", None)
    before = _cache_counts()
    if batch is not None:
        results = []
        for k, item in enumerate(batch):
            try:
                # Only a build a later sibling can fork is worth a dump.
                results.append(_simulate_one(
                    dict(item), prime_snapshots=k < len(batch) - 1
                ))
            except Exception as exc:
                results.append({"__failure__": _failure_info(exc)})
        out = {"__batch__": results}
    else:
        out = _simulate_one(payload, prime_snapshots=False)
    out["__cache_stats__"] = _cache_delta(before, _cache_counts())
    return out


def _simulate_one(payload: dict, prime_snapshots: bool) -> dict:
    guard_dict = payload.pop("__guard__", None)
    tel_dict = payload.pop("__telemetry__", None)
    cfg = RunConfig.from_dict(payload)

    tel_obj = None
    if tel_dict is not None:
        from repro.telemetry import Telemetry, TelemetryConfig

        tel_obj = Telemetry(TelemetryConfig.from_dict(tel_dict))

    def _out(result) -> dict:
        out = result.to_dict()
        if tel_obj is not None:
            out["__telemetry__"] = tel_obj.summary
        return out

    if guard_dict is None:
        return _out(runner.run_workload(
            cfg, telemetry=tel_obj, prime_snapshots=prime_snapshots
        ))

    from repro.guard import GuardConfig

    guard_cfg = GuardConfig.from_dict(guard_dict)
    try:
        return _out(runner.run_workload(cfg, guard=guard_cfg, telemetry=tel_obj))
    except Exception as exc:
        return {"__failure__": _failure_info(exc)}


# ---------------------------------------------------------------------------
# Serial guarded execution (attempt + deterministic-failure confirmation)
# ---------------------------------------------------------------------------

def _fresh_telemetry(tel_cfg):
    """One Telemetry per run attempt (or None when telemetry is off)."""
    if tel_cfg is None:
        return None
    from repro.telemetry import Telemetry

    return Telemetry(tel_cfg)

def _run_guarded_serial(index: int, cfg: RunConfig, guard_cfg,
                        store, tel_cfg=None) -> RunRecord:
    # A fresh Telemetry per attempt: a failed attempt's half-built trace
    # must not leak into the retry's.
    tel_obj = _fresh_telemetry(tel_cfg)
    try:
        result = runner.run_workload(cfg, guard=guard_cfg, telemetry=tel_obj)
        return RunRecord(
            index, cfg, COMPLETED, result, source="simulated", attempts=1,
            telemetry=tel_obj.summary if tel_obj is not None else None,
        )
    except Exception as exc:
        first = _failure_info(exc)
    # One confirmation attempt decides deterministic vs. transient; a
    # deterministic failure is quarantined, never retried further.
    tel_obj = _fresh_telemetry(tel_cfg)
    try:
        result = runner.run_workload(cfg, guard=guard_cfg, telemetry=tel_obj)
        return RunRecord(
            index, cfg, COMPLETED, result, source="simulated", attempts=2,
            error=f"transient failure on first attempt: {first['error']}",
            telemetry=tel_obj.summary if tel_obj is not None else None,
        )
    except Exception as exc:
        second = _failure_info(exc)
    if _same_failure(first, second):
        _quarantine(store, cfg, second)
        return _failed_record(index, cfg, QUARANTINED, second, attempts=2)
    return _failed_record(index, cfg, FAILED, second, attempts=2)


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


def _by_snapshot_key(pending: List[int], configs: Sequence[RunConfig]
                     ) -> Tuple[Dict[str, List[int]], List[int]]:
    """Pending grid indices of snapshot-eligible configs grouped by
    snapshot key (members in pending order), plus the ineligible rest."""
    from repro.snapshot import snapshot_eligible, snapshot_key

    by_key: Dict[str, List[int]] = {}
    singles: List[int] = []
    for i in pending:
        cfg = configs[i]
        if snapshot_eligible(cfg):
            by_key.setdefault(snapshot_key(cfg), []).append(i)
        else:
            singles.append(i)
    return by_key, singles


def _plan_batches(pending: List[int], configs: Sequence[RunConfig],
                  jobs: int, batching: bool) -> List[List[int]]:
    """Partition pending grid indices into worker tasks.

    Runs sharing a machine-snapshot key are grouped (the first run of a
    group builds+snapshots in its worker, the rest fork), but each group
    is chunked so a sweep with few distinct keys still spreads across
    all ``jobs`` workers.  Chunks hold at least two runs, so a config
    whose key no other pending config shares is exactly a singleton
    task, and a worker (or a service runner, which plans its batch the
    same way) snapshots a build only when a later run of its task can
    fork it.  Ineligible configs stay singleton tasks.  Groups are
    submitted in grid order of their first member, and records are
    merged by index, so batching never perturbs output order.
    """
    if not batching:
        return [[i] for i in pending]
    by_key, singles = _by_snapshot_key(pending, configs)
    # ceil(pending/jobs): with this chunk bound even a single-key sweep
    # produces >= jobs tasks.
    max_chunk = max(2, -(-len(pending) // max(1, jobs)))
    groups: List[List[int]] = []
    for members in by_key.values():
        n = len(members)
        chunks = max(1, min(-(-n // max_chunk), n // 2))
        for c in range(chunks):
            groups.append(members[c * n // chunks:(c + 1) * n // chunks])
    groups.extend([i] for i in singles)
    groups.sort(key=lambda g: g[0])
    return groups


# ---------------------------------------------------------------------------
# Shared campaign building blocks (pool executor + repro.service)
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
    extra_caches: Optional[Dict[str, Dict[str, int]]] = None,
) -> CampaignSummary:
    """Fold finished records plus cache counters into a summary.

    ``extra_caches`` carries out-of-process counter deltas (pool-worker
    batches, service runners) to merge with this process's own.
    """
    caches = runner.cache_stats()
    snapshot_counts = dict(caches["snapshot"])
    trace_counts = dict(caches["trace"])
    _merge_counts(
        {"snapshot": snapshot_counts, "trace": trace_counts}, extra_caches
    )
    return CampaignSummary(
        total=len(records),
        completed=sum(r.status == COMPLETED for r in records),
        cached=sum(r.status == CACHED for r in records),
        failed=sum(r.status in (FAILED, TIMEOUT) for r in records),
        quarantined=sum(r.status == QUARANTINED for r in records),
        elapsed_s=elapsed_s,
        memo=caches["memo"],
        snapshot=snapshot_counts,
        trace=trace_counts,
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
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Execute every run of *grid*; never raises for individual runs.

    ``store=None`` uses the globally installed result store (if any);
    pass a :class:`ResultStore` to use -- and install for the duration --
    a specific one.  ``guard`` (``True`` or a ``GuardConfig``) runs the
    whole campaign in paranoid mode.

    ``telemetry`` (``True`` or a ``TelemetryConfig``) observes every
    simulated run; each record carries the trace summary in
    ``RunRecord.telemetry``.  Telemetry runs always simulate (a cached
    result has no trace), but their results still prime the caches when
    unguarded.  ``progress`` (``True`` for a stderr printer, or a
    callable) reports live ``done``/``heartbeat`` events while a pool
    campaign drains.  ``trace_dir`` points pool workers at a shared
    on-disk trace cache (defaults to ``<store>/traces`` when a store
    with a root is installed; service runners pass the broker's).
    """
    t0 = time.monotonic()
    configs = grid.expand() if isinstance(grid, GridSpec) else list(grid)
    records: List[Optional[RunRecord]] = [None] * len(configs)

    guard_cfg = None
    if guard is not None and guard is not False:
        from repro.guard import Guard, GuardConfig

        if isinstance(guard, GuardConfig):
            guard_cfg = guard
        elif isinstance(guard, Guard):
            guard_cfg = guard.config
        else:
            guard_cfg = GuardConfig()

    tel_cfg = _as_campaign_telemetry(telemetry)
    on_event = _as_progress(progress)

    effective_store = store if store is not None else runner.get_result_store()
    prev_store = runner.set_result_store(effective_store)
    # Worker-reported amortization-cache counter deltas (pool batches).
    pool_caches: Dict[str, Dict[str, int]] = {}
    try:
        pending = prescan(
            configs, records, effective_store,
            skip_caches=guard_cfg is not None or tel_cfg is not None,
        )

        if jobs <= 1 or len(pending) <= 1:
            # Snapshot a fresh build only when a later pending config
            # shares its key and can fork it instead of rebuilding.
            by_key, _singles = _by_snapshot_key(pending, configs)
            forked_later = {i for members in by_key.values()
                            for i in members[:-1]}
            for serial_done, i in enumerate(pending):
                cfg = configs[i]
                if guard_cfg is not None:
                    records[i] = _run_guarded_serial(
                        i, cfg, guard_cfg, effective_store, tel_cfg
                    )
                else:
                    tel_obj = _fresh_telemetry(tel_cfg)
                    try:
                        result = runner.run_workload(
                            cfg, telemetry=tel_obj,
                            prime_snapshots=i in forked_later,
                        )
                        records[i] = RunRecord(
                            i, cfg, COMPLETED, result,
                            source="simulated", attempts=1,
                            telemetry=(
                                tel_obj.summary if tel_obj is not None else None
                            ),
                        )
                    except Exception as exc:
                        records[i] = _failed_record(
                            i, cfg, FAILED, _failure_info(exc), attempts=1
                        )
                if on_event is not None:
                    on_event("done", {
                        "completed": serial_done + 1,
                        "outstanding": len(pending) - serial_done - 1,
                        "total": len(pending),
                    })
        elif pending:
            guard_dict = guard_cfg.to_dict() if guard_cfg is not None else None
            tel_dict = tel_cfg.to_dict() if tel_cfg is not None else None

            # Shared on-disk trace cache: piggyback on the persistent
            # store's directory so workers stop regenerating identical
            # traces (and later campaigns reuse them too).
            amortize_dict = None
            effective_trace_dir = trace_dir
            if effective_trace_dir is None:
                store_root = getattr(effective_store, "root", None)
                if store_root:
                    import os as _os

                    effective_trace_dir = _os.path.join(
                        str(store_root), "traces"
                    )
            if guard_cfg is None and tel_cfg is None and effective_trace_dir:
                amortize_dict = {"trace_dir": effective_trace_dir}

            def _payload(i: int) -> dict:
                payload = configs[i].to_dict()
                if guard_dict is not None:
                    payload["__guard__"] = guard_dict
                if tel_dict is not None:
                    payload["__telemetry__"] = tel_dict
                return payload

            # Group runs that share a machine-snapshot key into batches
            # so they land on the same worker and fork its snapshot
            # instead of rebuilding.  Only plain campaigns batch:
            # guarded/observed runs keep per-run payloads (their
            # failure confirmation pass needs task granularity).
            groups = _plan_batches(
                pending, configs, jobs,
                batching=guard_cfg is None and tel_cfg is None,
            )

            def _group_payload(group: List[int]) -> dict:
                if len(group) == 1:
                    payload = _payload(group[0])
                else:
                    payload = {"__batch__": [_payload(i) for i in group]}
                if amortize_dict is not None:
                    payload["__amortize__"] = amortize_dict
                return payload

            # The stall watchdog sees one completion per *task*; a batch
            # is one task doing len(batch) runs, so scale its budget.
            max_batch = max(len(g) for g in groups)
            pool_timeout = timeout * max_batch if timeout is not None else None
            heartbeat = 2.0 if on_event is not None else None
            outcomes = _pool.map_with_retries(
                _simulate_payload, [_group_payload(g) for g in groups],
                jobs=jobs, timeout=pool_timeout, retries=retries,
                heartbeat=heartbeat, on_event=on_event,
            )
            confirm: List[Tuple[int, Dict[str, str], int]] = []
            for outcome, group in zip(outcomes, groups):
                if len(group) > 1:
                    if not outcome.ok:
                        for i in group:
                            records[i] = _record_pool_failure(
                                i, configs[i], outcome, effective_store
                            )
                        continue
                    value = outcome.value
                    _merge_counts(
                        pool_caches, value.get("__cache_stats__")
                    )
                    for i, item in zip(group, value["__batch__"]):
                        cfg = configs[i]
                        if isinstance(item, dict) and "__failure__" in item:
                            records[i] = _failed_record(
                                i, cfg, FAILED, item["__failure__"],
                                attempts=outcome.attempts,
                            )
                            continue
                        tel_summary = item.pop("__telemetry__", None)
                        result = MachineResult.from_dict(item)
                        runner.prime(cfg, result)
                        records[i] = RunRecord(
                            i, cfg, COMPLETED, result,
                            source="simulated", attempts=outcome.attempts,
                            telemetry=tel_summary,
                        )
                    continue
                i = group[0]
                cfg = configs[i]
                if not outcome.ok:
                    records[i] = _record_pool_failure(
                        i, cfg, outcome, effective_store
                    )
                    continue
                value = outcome.value
                _merge_counts(pool_caches, value.pop("__cache_stats__", None))
                if isinstance(value, dict) and "__failure__" in value:
                    confirm.append((i, value["__failure__"], outcome.attempts))
                    continue
                tel_summary = value.pop("__telemetry__", None)
                result = MachineResult.from_dict(value)
                if guard_cfg is None:
                    runner.prime(cfg, result)
                records[i] = RunRecord(
                    i, cfg, COMPLETED, result,
                    source="simulated", attempts=outcome.attempts,
                    telemetry=tel_summary,
                )
            if confirm:
                # Guard failures get exactly one confirmation attempt
                # (retries=0): reproduce -> quarantine, else transient.
                outcomes2 = _pool.map_with_retries(
                    _simulate_payload, [_payload(i) for i, _, _ in confirm],
                    jobs=jobs, timeout=timeout, retries=0,
                    heartbeat=heartbeat, on_event=on_event,
                )
                for (i, first, attempts1), outcome2 in zip(confirm, outcomes2):
                    cfg = configs[i]
                    attempts = attempts1 + outcome2.attempts
                    if not outcome2.ok:
                        records[i] = _record_pool_failure(
                            i, cfg, outcome2, effective_store,
                            extra_attempts=attempts1,
                        )
                        continue
                    value2 = outcome2.value
                    _merge_counts(
                        pool_caches, value2.pop("__cache_stats__", None)
                    )
                    if isinstance(value2, dict) and "__failure__" in value2:
                        second = value2["__failure__"]
                        if _same_failure(first, second):
                            _quarantine(effective_store, cfg, second)
                            records[i] = _failed_record(
                                i, cfg, QUARANTINED, second, attempts
                            )
                        else:
                            records[i] = _failed_record(
                                i, cfg, FAILED, second, attempts
                            )
                        continue
                    tel_summary2 = value2.pop("__telemetry__", None)
                    result = MachineResult.from_dict(value2)
                    records[i] = RunRecord(
                        i, cfg, COMPLETED, result,
                        source="simulated", attempts=attempts,
                        error=f"transient failure on first attempt: "
                              f"{first.get('error', '')}",
                        telemetry=tel_summary2,
                    )
    finally:
        runner.set_result_store(prev_store)

    done = [r for r in records if r is not None]
    summary = summarize_records(
        done, time.monotonic() - t0, effective_store, pool_caches
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
