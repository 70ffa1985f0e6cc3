"""Run-one / run-many drivers with caching inside a process.

Experiments share (scheme, workload) runs -- e.g., Fig. 9 and Fig. 11
both need TDC and NOMAD on every workload -- so the runner memoizes
results by their full parameter key within the process.  The memo cache
is bounded (LRU) and instrumented; campaign summaries surface its
hit/miss counters.

A persistent :class:`repro.campaign.store.ResultStore` can additionally
be installed with :func:`set_result_store`; ``run_workload`` then falls
back to the disk store on a memo miss and writes every fresh simulation
through to it, so repeated benchmark/figure runs become cache hits
across processes and sessions.

Below the result caches sits the **snapshot cache**: configs that
differ only in ROI-side knobs (seed, trace length) share one
built+prewarmed machine image, and ``_build`` forks it instead of
rebuilding (see :mod:`repro.snapshot`).  Forks are bit-identical to
fresh builds -- pinned by the golden fork test -- so the cache is
transparent to every result.  Policy mirrors the result caches: guarded
or telemetry-observed runs may *consume* a snapshot (a fork proves as
much as a build) but never *prime* one.  A direct ``run_workload`` call
primes every eligible fresh build; campaigns prime only the builds a
later run of theirs will fork (see ``repro.campaign.executor``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.common.stats import CacheTally
from repro.config.schemes import NomadConfig, TDCConfig, TiDConfig
from repro.config.system import scaled_system
from repro.snapshot import (
    SnapshotCache,
    SnapshotError,
    snapshot_eligible,
    snapshot_key,
)
from repro.system.builder import build_machine
from repro.system.machine import Machine, MachineResult
from repro.workloads.synthetic import TRACE_COUNTS, trace_cache_stats


@dataclass(frozen=True)
class RunConfig:
    """Everything identifying one simulation run."""

    scheme: str
    workload: str
    num_mem_ops: int = 10_000
    num_cores: int = 4
    dc_megabytes: int = 64
    seed: int = 1
    prewarm: bool = True
    nomad_cfg: Optional[NomadConfig] = None
    tdc_cfg: Optional[TDCConfig] = None
    tid_cfg: Optional[TiDConfig] = None

    def with_(self, **overrides) -> "RunConfig":
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """JSON-compatible view; stable input for cache keys + workers."""
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "num_mem_ops": self.num_mem_ops,
            "num_cores": self.num_cores,
            "dc_megabytes": self.dc_megabytes,
            "seed": self.seed,
            "prewarm": self.prewarm,
            "nomad_cfg": self.nomad_cfg.to_dict() if self.nomad_cfg else None,
            "tdc_cfg": self.tdc_cfg.to_dict() if self.tdc_cfg else None,
            "tid_cfg": self.tid_cfg.to_dict() if self.tid_cfg else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"RunConfig.from_dict: unknown keys {sorted(unknown)}")
        kwargs = dict(d)
        for key, sub_cls in (
            ("nomad_cfg", NomadConfig),
            ("tdc_cfg", TDCConfig),
            ("tid_cfg", TiDConfig),
        ):
            sub = kwargs.get(key)
            if sub is not None and not isinstance(sub, sub_cls):
                kwargs[key] = sub_cls.from_dict(sub)
        return cls(**kwargs)


class MemoCache:
    """Bounded LRU memo of ``RunConfig -> MachineResult`` with counters."""

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._data: "OrderedDict[RunConfig, MachineResult]" = OrderedDict()
        self.counts = CacheTally("hits", "misses", "evictions")

    def get(self, key: RunConfig) -> Optional[MachineResult]:
        try:
            value = self._data[key]
        except KeyError:
            self.counts.add("misses")
            return None
        self._data.move_to_end(key)
        self.counts.add("hits")
        return value

    def put(self, key: RunConfig, value: MachineResult) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.counts.add("evictions")

    def clear(self) -> None:
        self._data.clear()
        self.counts.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            **self.counts.total,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


_CACHE = MemoCache()
# Optional cross-process store (duck-typed: get/put/stats), see
# repro.campaign.store.ResultStore.
_STORE = None
# Built+prewarmed machine images keyed by the build-affecting config
# prefix; worker processes each hold their own (campaign batching
# routes same-key runs to the same worker to exploit that).
_SNAPSHOTS = SnapshotCache()


def clear_cache() -> None:
    _CACHE.clear()


def cache_stats() -> Dict[str, Dict]:
    """All in-process cache counters, one section per layer:
    ``memo`` (results), ``snapshot`` (machine images), ``trace``
    (materialized workload traces)."""
    return {
        "memo": _CACHE.stats(),
        "snapshot": _SNAPSHOTS.stats(),
        "trace": trace_cache_stats(),
    }


# The counters of each cache layer; every other key :func:`cache_stats`
# reports (size, maxsize, bytes) is a gauge.  A campaign summary reports
# how far the counters moved during the campaign.
CACHE_COUNT_KEYS = {
    "memo": ("hits", "misses", "evictions"),
    "snapshot": ("hits", "misses", "stores", "evictions"),
    "trace": ("hits", "misses", "evictions"),
}
# The layers whose counters travel between processes: pool workers and
# service runners report *deltas* of these so a campaign summary (or the
# broker's /status) can aggregate hit rates fleet-wide.  Tasks never
# consult the memo, so its counts stay with the process that prescans.
SHARED_CACHES = ("snapshot", "trace")


def _tallies() -> Dict[str, CacheTally]:
    return {"memo": _CACHE.counts, "snapshot": _SNAPSHOTS.counts,
            "trace": TRACE_COUNTS}


def cache_counts(sections: Iterable[str] = SHARED_CACHES
                 ) -> Dict[str, Dict[str, int]]:
    """The counters of :func:`cache_stats` for *sections*: this
    process's totals."""
    return {section: dict(_tallies()[section].total) for section in sections}


def thread_cache_counts(sections: Iterable[str] = SHARED_CACHES
                        ) -> Dict[str, Dict[str, int]]:
    """Like :func:`cache_counts`, but only the calling thread's work, so
    a campaign counts itself even while runner threads sharing this
    process run others."""
    return {section: _tallies()[section].thread() for section in sections}


def cache_delta(before: Dict[str, Dict[str, int]],
                after: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Per-counter ``after - before`` over the sections of *before*."""
    return {
        section: {k: after[section][k] - before[section][k] for k in counts}
        for section, counts in before.items()
    }


def merge_cache_counts(dst: Dict[str, Dict[str, int]], src) -> None:
    """Accumulate a (possibly partial) counts mapping into *dst*."""
    for section, counts in (src or {}).items():
        bucket = dst.setdefault(section, {})
        for k, v in counts.items():
            bucket[k] = bucket.get(k, 0) + v


def clear_snapshot_cache() -> None:
    _SNAPSHOTS.clear()


def configure_snapshots(maxsize: int) -> int:
    """Re-bound the snapshot cache (clears it); returns the previous
    bound.  ``maxsize=0`` disables forking entirely: every run builds,
    which the opcode meter's sweep gate reports as 0 forks."""
    global _SNAPSHOTS
    prev = _SNAPSHOTS.maxsize
    _SNAPSHOTS = SnapshotCache(maxsize=maxsize)
    return prev


def set_result_store(store) -> object:
    """Install a persistent result store; returns the previous one."""
    global _STORE
    prev = _STORE
    _STORE = store
    return prev


def get_result_store():
    return _STORE


def cached_result(cfg: RunConfig) -> Tuple[Optional[MachineResult], str]:
    """Look up *cfg* without simulating.

    Returns ``(result, source)`` where source is ``"memo"`` or
    ``"store"``; a store hit is promoted into the memo cache.
    """
    result = _CACHE.get(cfg)
    if result is not None:
        return result, "memo"
    if _STORE is not None:
        result = _STORE.get(cfg)
        if result is not None:
            _CACHE.put(cfg, result)
            return result, "store"
    return None, ""


def prime(cfg: RunConfig, result: MachineResult) -> None:
    """Insert an externally computed result (e.g. from a pool worker)."""
    _CACHE.put(cfg, result)
    if _STORE is not None:
        _STORE.put(cfg, result)


def run_workload(cfg: RunConfig, guard=None, telemetry=None) -> MachineResult:
    """Run (or fetch the cached result of) one configuration.

    ``guard`` (``True`` / ``GuardConfig`` / ``Guard``) opts into
    paranoid mode.  Guarded runs always simulate: they bypass both the
    memo cache and the result store on lookup *and* on write-through --
    a cached result proves nothing about invariants, and a chaos run's
    result must never poison the caches.

    ``telemetry`` (``True`` / ``TelemetryConfig`` / ``Telemetry``) opts
    into observability.  Telemetry runs always simulate (a cached result
    has no trace), but -- being bit-identical by construction -- their
    results are safe to prime into the caches when unguarded.
    """
    if guard is not None and guard is not False:
        result, _machine = simulate(cfg, guard=guard, telemetry=telemetry)
        return result
    if telemetry is not None and telemetry is not False:
        result, _machine = simulate(cfg, telemetry=telemetry)
        prime(cfg, result)
        return result
    cached, _source = cached_result(cfg)
    if cached is not None:
        return cached
    result = _build(cfg).run()
    prime(cfg, result)
    return result


def simulate(cfg: RunConfig, guard=None, telemetry=None,
             prime_snapshots: bool = True):
    """Always-fresh simulation; returns ``(result, machine)``.

    The machine comes back for callers that need post-run state the
    result does not carry (full ``Machine.metrics()``, the telemetry
    document).  Never consults or fills the *result* caches --
    ``run_workload`` layers that policy on top.  The build may still be
    served by forking a cached machine snapshot (bit-identical to a
    fresh build); guarded/observed runs never prime that cache.

    ``prime_snapshots=False`` keeps a fresh build out of the snapshot
    cache: campaigns pass it for configs no later run of theirs can
    fork, since a dump costs time and slows the dumped machine's run
    (see :mod:`repro.common.inline_state`).
    """
    guard_obj = None
    if guard is not None and guard is not False:
        from repro.guard import as_guard

        guard_obj = as_guard(guard, run_config=cfg.to_dict())
    observed = guard_obj is not None or (
        telemetry is not None and telemetry is not False
    )
    machine = _build(cfg, prime_snapshots=prime_snapshots and not observed)
    result = machine.run(guard=guard_obj, telemetry=telemetry)
    return result, machine


def _build(cfg: RunConfig, prime_snapshots: bool = True):
    """A ready-to-run machine for *cfg*: forked from the snapshot cache
    when a build-compatible image exists, freshly built otherwise.

    A fresh eligible build is snapshotted into the cache unless
    ``prime_snapshots`` is False (guarded/observed callers, and campaign
    runs no later run can fork).
    """
    if snapshot_eligible(cfg) and _SNAPSHOTS.maxsize > 0:
        key = snapshot_key(cfg)
        blob = _SNAPSHOTS.get(key)
        if blob is not None:
            return Machine.restore(
                blob, seed=cfg.seed, num_mem_ops=cfg.num_mem_ops
            )
        machine = _fresh_build(cfg)
        if prime_snapshots:
            try:
                _SNAPSHOTS.put(key, machine.snapshot())
            except SnapshotError:
                pass  # e.g. spec-less machines; just skip amortization
        return machine
    return _fresh_build(cfg)


def _fresh_build(cfg: RunConfig):
    system = scaled_system(num_cores=cfg.num_cores, dc_megabytes=cfg.dc_megabytes)
    return build_machine(
        cfg.scheme,
        workload_name=cfg.workload,
        cfg=system,
        num_mem_ops=cfg.num_mem_ops,
        seed=cfg.seed,
        prewarm=cfg.prewarm,
        nomad_cfg=cfg.nomad_cfg,
        tdc_cfg=cfg.tdc_cfg,
        tid_cfg=cfg.tid_cfg,
    )


def run_matrix(
    schemes: Iterable[str],
    workloads: Iterable[str],
    base: Optional[RunConfig] = None,
    jobs: int = 1,
    store=None,
) -> Dict[Tuple[str, str], MachineResult]:
    """Run a (scheme x workload) grid; keys are ``(scheme, workload)``.

    Routed through the campaign layer: ``jobs > 1`` fans the grid out
    over worker processes, and ``store`` (or the installed global store)
    serves repeats from disk.  Raises ``CampaignError`` if any run fails.
    """
    from repro.campaign import GridSpec, run_campaign

    if base is None:
        base = RunConfig(scheme="baseline", workload="cact")
    grid = GridSpec(schemes=tuple(schemes), workloads=tuple(workloads), base=base)
    return run_campaign(grid, jobs=jobs, store=store).as_matrix()
