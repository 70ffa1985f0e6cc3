"""The benchmark's four workloads.

Each workload is a closed loop of *iterations*, one process each (see
``iteration.py``): ``prepare`` starts whatever the iteration needs
(reported as set-up, with the process start and the imports below),
``timed`` is the measured region, ``check`` verifies the outputs and
counts attempted and failed operations, and ``teardown`` stops what
``prepare`` started.  Every timed region starts with empty memo,
snapshot and trace caches, after a ``gc.collect()``, because every fresh
campaign pays for those caches.  Inside the model the DRAM cache starts
prewarmed (``RunConfig.prewarm``, as the figures use); SRAM caches and
TLBs start empty.

One operation is one grid slot.  A slot that raises, is missing, or fails
its check counts as failed; the loop goes on.

The workload seed reaches the program only as ``RunConfig.seed``.
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import threading
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.campaign as campaign
from repro import obs
from repro.campaign import CampaignError, ResultStore
from repro.campaign.executor import CACHED, COMPLETED
from repro.guard import Guard, GuardConfig
from repro.harness import runner
from repro.harness.experiments import experiment_summary
from repro.harness.runner import RunConfig, configure_snapshots, simulate
from repro.obs.metrics import parse_exposition
from repro.service.broker import Broker, BrokerServer
from repro.service.coordinator import run_distributed_campaign
from repro.service.runner import runner_loop
from repro.telemetry import TelemetryConfig, timeline, trace_schema
from repro.workloads.presets import PRESETS
from repro.workloads.synthetic import clear_trace_cache


def cold_caches() -> None:
    """Start a timed region the way a fresh campaign starts."""
    runner.set_result_store(None)
    runner.clear_cache()
    runner.clear_snapshot_cache()
    clear_trace_cache()
    gc.collect()


def seed_block(seed: int, n: int) -> range:
    """The *n* RunConfig seeds of benchmark seed *seed*: seed 1 gives
    1..n and every later seed the next disjoint block (seed 0 gives
    0..n-1; the simulator takes no negative seed)."""
    first = n * (seed - 1) + 1 if seed else 0
    return range(first, first + n)


def traced(tracer, name: str, layer: str, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, layer, None, fn, *args, **kwargs)


def iteration_dir(workdir: Path, kind: str) -> Path:
    """A new directory under *workdir* that no other iteration uses."""
    workdir.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=workdir))


def _result_ok(result) -> bool:
    return (
        result is not None
        and result.runtime_cycles > 0
        and result.instructions > 0
        and math.isfinite(result.ipc)
        and result.ipc > 0
    )


def _record_result(rec, status: str = COMPLETED) -> Optional[dict]:
    """The record's result, if the slot ended with *status* and looks
    sane."""
    if rec is None or rec.status != status or not _result_ok(rec.result):
        return None
    return rec.result.to_dict()


def _verdict(results: List[Optional[dict]], problems: List[str],
             extra_failed: int = 0, counts: Optional[dict] = None) -> dict:
    return {
        "attempted": len(results),
        "failed": sum(r is None for r in results) + extra_failed,
        "problems": problems,
        "results": results,
        "counts": counts or {},
    }


class Workload:
    """One workload at one seed.  Each iteration is a process of its
    own and writes its files in a new directory under ``workdir``."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def slots(self) -> int:
        """Operations one iteration attempts."""
        raise NotImplementedError

    def prepare(self) -> dict:
        cold_caches()
        return {}

    def timed(self, state: dict, tracer=None) -> dict:
        raise NotImplementedError

    def check(self, state: dict, out: dict, reference: bool) -> dict:
        """``{"attempted", "failed", "problems", "results", "counts"}``
        for one iteration; runs after the timed region, before teardown.
        ``results`` holds one JSON-able entry per slot (None when the
        slot failed), which later iterations must repeat exactly.  The
        costlier comparisons against a reference run only when
        ``reference`` is set."""
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# paper-headline
# ---------------------------------------------------------------------------

class PaperHeadline(Workload):
    """Section IV-B5 summary over every Table I preset, serially."""

    name = "paper-headline"
    SCHEMES = ("baseline", "tid", "tdc", "nomad")

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        if scale == "tiny":
            self.base = RunConfig(scheme="ideal", workload="cact",
                                  num_mem_ops=300, num_cores=2,
                                  dc_megabytes=16, seed=seed)
            self.presets: List[str] = ["cact", "libq"]
        else:
            # The figure suite's BENCH_BASE (benchmarks/conftest.py).
            self.base = RunConfig(scheme="ideal", workload="cact",
                                  num_mem_ops=6000, num_cores=4,
                                  dc_megabytes=64, seed=seed)
            self.presets = list(PRESETS)

    @property
    def slots(self) -> int:
        return len(self.SCHEMES) * len(self.presets)

    def grid(self) -> List[RunConfig]:
        return [self.base.with_(scheme=s, workload=w)
                for s in self.SCHEMES for w in self.presets]

    def timed(self, state: dict, tracer=None) -> dict:
        try:
            summary = traced(tracer, "experiment_summary", "harness",
                             experiment_summary, self.base, self.presets)
        except CampaignError as exc:  # failed slots are counted by check()
            return {"summary": None, "error": str(exc)}
        return {"summary": summary, "error": ""}

    def check(self, state: dict, out: dict, reference: bool) -> dict:
        # experiment_summary leaves every completed run in the memo.
        results = []
        for cfg in self.grid():
            result, _source = runner.cached_result(cfg)
            results.append(result.to_dict() if _result_ok(result) else None)
        problems: List[str] = []
        summary = out["summary"]
        if summary is None:
            problems.append(f"experiment_summary raised: {out['error']}")
        elif not all(isinstance(v, float) and math.isfinite(v)
                     for v in summary.values()):
            problems.append(f"non-finite summary value: {summary}")
        extra = 1 if problems and all(r is not None for r in results) else 0
        return _verdict(results, problems, extra)

    @staticmethod
    def gaps(summary: dict) -> Dict[str, float]:
        """The simulator's error against the paper, in percentage
        points; the paper numbers are the ``paper_*`` fields of
        ``experiment_summary``."""
        pairs = {
            "ipc_gain_tdc_gap_pp": "ipc_gain_over_tdc",
            "ipc_gain_tid_gap_pp": "ipc_gain_over_tid",
            "stall_reduction_gap_pp": "stall_reduction_vs_tdc",
            "buffer_served_gap_pp": "buffer_hit_ratio",
        }
        return {
            name: abs(summary[key] - summary[f"paper_{key}"]) * 100.0
            for name, key in pairs.items()
        }


# ---------------------------------------------------------------------------
# seed-sweep
# ---------------------------------------------------------------------------

class SeedSweep(Workload):
    """The ``repro bench --sweep`` grid: schemes x 16 seeds on cact."""

    name = "seed-sweep"
    SCHEMES = ("tid", "tdc", "nomad")

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        if scale == "tiny":
            ops, cores, dc_mb, n = 200, 2, 16, 3
        else:
            ops, cores, dc_mb, n = 400, 2, 48, 16
        # Seed 1 gives seeds 1..16, the `repro bench --sweep` grid.  More
        # seeds per block would overflow the 32-entry trace cache and make
        # this a different workload.
        seeds = seed_block(seed, n)
        self.configs = [
            RunConfig(scheme=s, workload="cact", num_mem_ops=ops,
                      num_cores=cores, dc_megabytes=dc_mb, seed=k)
            for s in self.SCHEMES for k in seeds
        ]

    @property
    def slots(self) -> int:
        return len(self.configs)

    def timed(self, state: dict, tracer=None) -> dict:
        # Looked up per call, so that the traced run's wrapper is used.
        return {"campaign": campaign.run_campaign(self.configs, jobs=1)}

    def check(self, state: dict, out: dict, reference: bool) -> dict:
        records = out["campaign"].records
        by_index = {r.index: r for r in records}
        results = [_record_result(by_index.get(i)) for i in range(self.slots)]
        extra = 0
        problems: List[str] = []
        if reference:
            # One forked run per scheme must equal a fresh build field by
            # field (the second seed of each scheme forks the first's
            # image).
            per_scheme = self.slots // len(self.SCHEMES)
            previous = configure_snapshots(0)
            try:
                for k in range(len(self.SCHEMES)):
                    i = k * per_scheme + 1
                    if results[i] is None:
                        continue
                    fresh, _machine = simulate(self.configs[i])
                    if fresh.to_dict() != results[i]:
                        extra += 1
                        problems.append(
                            f"forked {self.configs[i].scheme} seed "
                            f"{self.configs[i].seed} differs from a fresh build"
                        )
            finally:
                configure_snapshots(previous)
        retries = sum(max(0, r.attempts - 1) for r in records)
        return _verdict(results, problems, extra, {"campaign.retries": retries})


# ---------------------------------------------------------------------------
# service-grid
# ---------------------------------------------------------------------------

class ServiceGrid(Workload):
    """A distributed campaign through an in-process broker, then the same
    grid resubmitted, which the store must answer entirely."""

    name = "service-grid"
    SCHEMES = ("baseline", "tdc", "nomad")
    # The runner claims new work within 50 ms of an enqueue; the
    # coordinator polls at its default, since each status poll costs CPU
    # in three threads.
    RUNNER_POLL_S = 0.05
    COORDINATOR_POLL_S = 0.25

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        if scale == "tiny":
            presets, n, ops = ("sop",), 2, 200
        else:
            presets, n, ops = ("cact", "libq", "mcf", "sop"), 8, 300
        seeds = seed_block(seed, n)
        # CI-smoke size: 2 cores, 8 MB DRAM cache.
        self.configs = [
            RunConfig(scheme=s, workload=w, num_mem_ops=ops, num_cores=2,
                      dc_megabytes=8, seed=k)
            for s in self.SCHEMES for w in presets for k in seeds
        ]

    @property
    def slots(self) -> int:
        # The campaign, then its resubmission.
        return 2 * len(self.configs)

    def prepare(self) -> dict:
        cold_caches()
        # A fresh store every iteration: a reused one would answer the
        # first campaign from disk.
        root = iteration_dir(self.workdir, "service")
        state = {"root": root, "store": root / "store", "obs": root / "obs"}
        state["prev_obs"] = obs.configure(
            obs.ObsConfig(component="bench", obs_dir=str(state["obs"]))
        )
        broker = Broker(state["store"], lease_s=60.0)
        server = BrokerServer(broker).start()
        stop = threading.Event()
        thread = threading.Thread(
            target=self._runner, args=(server.url, stop),
            name="perfbench-runner", daemon=True,
        )
        thread.start()
        state.update(broker=broker, server=server, stop=stop, thread=thread)
        return state

    def _runner(self, url: str, stop: threading.Event) -> None:
        runner_loop(url, jobs=1, runner_id="perfbench-runner",
                    poll_s=self.RUNNER_POLL_S, stop=stop, give_up_after_s=None,
                    install_signal_handlers=False)

    def timed(self, state: dict, tracer=None) -> dict:
        url = state["server"].url
        first = traced(tracer, "run_distributed_campaign", "service",
                       run_distributed_campaign, self.configs, url,
                       store=ResultStore(state["store"]), jobs=1,
                       poll_s=self.COORDINATOR_POLL_S, max_wait_s=120.0)
        # The runner thread shares this process's memo; empty it so the
        # resubmission is answered by the store's read path.
        runner.clear_cache()
        again = traced(tracer, "run_distributed_campaign", "service",
                       run_distributed_campaign, self.configs, url,
                       store=ResultStore(state["store"]), jobs=1,
                       poll_s=self.COORDINATOR_POLL_S, max_wait_s=120.0)
        return {"first": first, "again": again}

    def check(self, state: dict, out: dict, reference: bool) -> dict:
        first, again = out["first"], out["again"]
        n = len(self.configs)
        # The first campaign must simulate every slot, and the
        # resubmission must read every slot back from the store.
        got = {r.index: r for r in first.records}
        results = [_record_result(got.get(i)) for i in range(n)]
        cached = {r.index: r for r in again.records}
        for i in range(n):
            rec = cached.get(i)
            from_store = rec is not None and rec.source == "store"
            results.append(_record_result(rec, CACHED) if from_store else None)
        problems: List[str] = []
        if again.summary.completed:
            problems.append(
                f"resubmission simulated {again.summary.completed} run(s)"
            )
        extra = 0
        if reference:
            # A sample of records (the first slot of each scheme) must
            # equal a serial in-process run.
            per_scheme = n // len(self.SCHEMES)
            for k in range(len(self.SCHEMES)):
                i = k * per_scheme
                if results[i] is None:
                    continue
                serial, _machine = simulate(self.configs[i])
                if serial.to_dict() != results[i]:
                    extra += 1
                    problems.append(
                        f"distributed {self.configs[i].scheme}/"
                        f"{self.configs[i].workload} differs from a serial run"
                    )
        with urllib.request.urlopen(state["server"].url + "/metrics",
                                    timeout=30) as resp:
            samples, _types = parse_exposition(resp.read().decode())

        def total(name: str, **labels: str) -> float:
            want = set(labels.items())
            return sum(v for (sample, have), v in samples.items()
                       if sample == name and want <= set(have))

        obs_dir = state["obs"]
        log_lines = sum(
            sum(1 for _ in p.open()) for p in obs_dir.glob("logs/*.jsonl")
        )
        span_begins = sum(
            sum(1 for line in p.open() if '"ph": "b"' in line)
            for p in obs_dir.glob("traces/*.jsonl")
        )
        counts = {
            "campaign.retries": sum(
                max(0, r.attempts - 1) for r in first.records
            ),
            "service.retries": total("repro_runner_backoff_retries_total"),
            "service.requeues": total("repro_broker_lease_expiries_total"),
            "service.duplicate_completes": total(
                "repro_broker_duplicate_completes_total"
            ),
            "service.journal_appends": state["broker"].journal.stats()["appends"],
            "obs.log_lines": log_lines,
            "obs.spans": span_begins,
        }
        for endpoint in ("enqueue", "claim", "complete", "heartbeat", "status"):
            counts[f"service.requests.{endpoint}"] = total(
                "repro_broker_requests_total", endpoint=f"/{endpoint}")
        return _verdict(results, problems, extra, counts)

    def teardown(self, state: dict) -> None:
        state["stop"].set()
        state["thread"].join(timeout=60)
        state["server"].shutdown()
        state["broker"].journal.close()
        state["broker"].index.close()
        obs.configure(state["prev_obs"])
        # The store stays behind: its files were fsync'd, and deleting
        # durable files can cost tens of milliseconds each (online
        # discard), which would stretch every run by seconds.


# ---------------------------------------------------------------------------
# observed-run
# ---------------------------------------------------------------------------

class ObservedRun(Workload):
    """The EXPERIMENTS.md Perfetto recipe with the guard on."""

    name = "observed-run"
    NO_MID_RUN_SWEEP = 10 ** 9  # events; far beyond any run here

    def __init__(self, seed: int, scale: str, workdir: Path):
        super().__init__(seed, scale, workdir)
        if scale == "tiny":
            self.config = RunConfig(scheme="nomad", workload="mcf",
                                    num_mem_ops=1000, num_cores=2,
                                    dc_megabytes=16, seed=seed)
        else:
            self.config = RunConfig(scheme="nomad", workload="mcf",
                                    num_mem_ops=20000, num_cores=4,
                                    dc_megabytes=64, seed=seed)

    @property
    def slots(self) -> int:
        return 1

    def prepare(self) -> dict:
        cold_caches()
        root = iteration_dir(self.workdir, "observed")
        return {"root": root, "timeline": root / "timeline.json"}

    def timed(self, state: dict, tracer=None) -> dict:
        # The guard sweeps its invariants once, after the event queue has
        # drained.  A mid-run sweep can land while a tag-miss fill is in
        # flight (frame taken from the free queue, CPD not yet valid), and
        # the 'frames' checker reports that as a violation: nomad/mcf
        # seeds 9 and 13 trip it at this size with telemetry on.
        guard = Guard(GuardConfig(check_interval=self.NO_MID_RUN_SWEEP,
                                  bundle_dir=str(state["root"] / "bundles")))
        telemetry = TelemetryConfig(sample_every=2000,
                                    timeline_path=str(state["timeline"]))
        try:
            result, _machine = traced(tracer, "simulate", "harness", simulate,
                                      self.config, guard=guard,
                                      telemetry=telemetry)
        except Exception as exc:  # the guard raising is a failed slot
            return {"error": f"{type(exc).__name__}: {exc}", "guard": guard}
        doc = timeline.load_trace(state["timeline"])
        problems = trace_schema.validate_trace(doc)
        summary = timeline.summarize_trace(doc)
        other = doc.get("otherData", {})
        dropped = sum((other.get("events_dropped") or {}).values())
        return {
            "error": "",
            "result": result,
            "guard": guard,
            "problems": problems,
            "counts": {
                "telemetry.trace_events": len(doc["traceEvents"]),
                "telemetry.samples": len(doc.get("samples") or []),
                "telemetry.dropped": dropped + int(other.get("samples_dropped") or 0),
                "telemetry.overlap_frac": summary.get("overlap_fraction") or 0.0,
                "telemetry.fills": summary["copies"]["fills"],
            },
        }

    def check(self, state: dict, out: dict, reference: bool) -> dict:
        guard = out["guard"]
        problems = []
        if out["error"]:
            problems.append(f"observed run raised: {out['error']}")
        else:
            problems.extend(f"trace: {p}" for p in out["problems"])
            if not _result_ok(out["result"]):
                problems.append("observed run produced no result")
        if guard.violations:
            problems.append(f"guard reported {guard.violations} violation(s)")
        counts = dict(out.get("counts") or {})
        counts["guard.sweeps"] = guard.checks_run
        counts["guard.violations"] = guard.violations
        result = None if problems else out["result"].to_dict()
        return _verdict([result], problems, counts=counts)

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (PaperHeadline, SeedSweep, ServiceGrid, ObservedRun)
}
