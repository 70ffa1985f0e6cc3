"""Perf-regression benchmark for the simulator core.

Measures end-to-end throughput of the reference comparison (nomad + tdc
on ``cact``) the way the pre-optimization baseline was captured: a fresh
machine is built per repetition and only ``Machine.run()`` -- the event
loop -- is timed.  Two scenario sizes exist: ``full`` (the committed
speedup claim) and ``quick`` (CI perf smoke).

Absolute runs/sec are machine-dependent, so every report also runs a
fixed pure-Python *normalizer* loop and reports throughput relative to
it.  Comparing ``normalized`` values cancels out how fast the host
happens to be, which is what lets CI compare against numbers committed
from a different machine (``python -m repro bench --check``).

A second family of scenarios (``--sweep``) benchmarks the *campaign*
layer instead of the bare engine: a seeds-axis scheme grid is run
through ``run_campaign`` end-to-end, which is the path machine-snapshot
forking amortizes.  Its frozen ``baseline`` entries were captured with
snapshot forking disabled (``configure_snapshots(0)``) -- the
rebuild-every-run behavior that predates the snapshot cache.

Results are stored in ``BENCH_engine.json`` at the repo root; the
``baseline`` entries in that file are frozen pre-optimization
measurements and must not be regenerated (``--update`` only rewrites the
``current`` entries).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from repro.config.system import scaled_system
from repro.system.builder import build_machine

BENCH_SCHEMES = ("nomad", "tdc")
BENCH_WORKLOAD = "cact"
BENCH_SEED = 1

# (ops per core, cores, DC megabytes, repetitions of the scheme pair).
SCENARIOS: Dict[str, Tuple[int, int, int, int]] = {
    "full": (6000, 4, 64, 3),
    "quick": (1500, 2, 16, 2),
}

# -- sweep (campaign amortization) scenarios ----------------------------------
#
# Where the engine scenarios above time the bare event loop, the sweep
# scenarios time ``run_campaign`` end-to-end over a seeds-axis grid --
# the shape every figure reproduction sweeps -- once with machine
# snapshots enabled (the amortized path) and, for the frozen baseline
# entries, once with ``configure_snapshots(0)`` (the rebuild-every-run
# pre-snapshot path).  Schemes with DRAM-cache metadata are the ones
# whose builds amortize; ``baseline``/``ideal`` are fork-unprofitable
# by design (see repro.snapshot) and excluded.
SWEEP_SCHEMES = ("tid", "tdc", "nomad")

# (ops per core, cores, DC megabytes, number of seeds).  The seeds
# axis is what amortizes: one build+snapshot per scheme serves every
# seed, so more seeds move the campaign closer to the marginal
# fork+run cost.
SWEEP_SCENARIOS: Dict[str, Tuple[int, int, int, int]] = {
    "sweep": (400, 2, 48, 16),
    "sweep_quick": (300, 2, 32, 12),
}

# CI gate: fail when normalized throughput drops more than this fraction
# below the committed ``current`` entry; smaller drops only warn.
REGRESSION_FAIL_FRAC = 0.25

# -- observability overhead scenarios -----------------------------------------
#
# ``--obs`` runs the same distributed sweep twice through an in-process
# broker + runner-thread fleet (the chaos-harness wiring, minus faults):
# once with observability torn down and once with logging + /metrics +
# tracing fully enabled against file sinks.  The guard is on the *ratio*
# of the two wall clocks, so host speed cancels out.
OBS_SCHEMES = ("baseline", "tdc", "nomad")

# (ops per core, cores, DC megabytes, number of seeds).
OBS_SCENARIOS: Dict[str, Tuple[int, int, int, int]] = {
    "service_obs": (600, 2, 8, 4),
    "service_obs_quick": (300, 2, 8, 4),
}

# CI gate: fail when the obs-enabled sweep is more than this fraction
# slower than the obs-disabled one.
OBS_OVERHEAD_FAIL_FRAC = 0.05


def normalizer_score(n: int = 300_000) -> float:
    """Ops/sec of a fixed dict+int loop; calibrates the host's speed.

    This function is part of the committed-numbers contract: changing it
    invalidates every ``normalized`` value in BENCH_engine.json.
    """
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        acc = 0
        for i in range(n):
            d[i & 1023] = acc
            acc += i ^ (acc >> 3)
        rate = n / (time.perf_counter() - t0)
        if rate > best:
            best = rate
    return best


def _measure(ops: int, cores: int, dc_mb: int, reps: int) -> Tuple[List[float], int]:
    """Time ``reps`` nomad+tdc pairs; returns (per-run walls, total events)."""
    walls: List[float] = []
    events = 0
    for _rep in range(reps):
        for scheme in BENCH_SCHEMES:
            cfg = scaled_system(num_cores=cores, dc_megabytes=dc_mb)
            machine = build_machine(
                scheme, workload_name=BENCH_WORKLOAD, cfg=cfg,
                num_mem_ops=ops, seed=BENCH_SEED,
            )
            t0 = time.perf_counter()
            machine.run()
            walls.append(time.perf_counter() - t0)
            events += machine.sim.events_processed
    return walls, events


def run_scenario(name: str) -> Dict:
    """One scenario's measurement block (the ``current`` entry shape)."""
    ops, cores, dc_mb, reps = SCENARIOS[name]
    normalizer = normalizer_score()
    walls, events = _measure(ops, cores, dc_mb, reps)
    total = sum(walls)
    runs_per_sec = len(walls) / total
    return {
        "params": {"ops": ops, "cores": cores, "dc_mb": dc_mb, "reps": reps,
                   "schemes": list(BENCH_SCHEMES), "workload": BENCH_WORKLOAD,
                   "seed": BENCH_SEED},
        "runs_per_sec": runs_per_sec,
        "events_per_sec": events / total,
        "events": events,
        "wall_total_sec": total,
        "normalizer_ops_per_sec": normalizer,
        "normalized": runs_per_sec / normalizer,
    }


def _sweep_configs(name: str) -> list:
    from repro.harness.runner import RunConfig

    ops, cores, dc_mb, seeds = SWEEP_SCENARIOS[name]
    return [
        RunConfig(scheme=scheme, workload=BENCH_WORKLOAD, num_mem_ops=ops,
                  num_cores=cores, dc_megabytes=dc_mb, seed=seed)
        for scheme in SWEEP_SCHEMES
        for seed in range(1, seeds + 1)
    ]


def run_sweep_scenario(name: str, amortize: bool = True,
                       reps: int = 2) -> Dict:
    """Campaign throughput over a seeds-axis scheme grid.

    ``amortize=False`` measures the rebuild-every-run path (snapshot
    forking disabled) -- that is how the frozen ``baseline`` sweep
    entries in BENCH_engine.json were captured.  Both modes start from
    cold caches and measure the whole campaign wall clock, so trace
    generation and the event loop are identical on both sides; the
    delta is exactly what snapshot forking amortizes.  The campaign
    runs ``reps`` times, every rep fully cold, and the fastest rep is
    reported (same best-of policy as :func:`normalizer_score`).
    """
    import gc

    from repro.campaign import run_campaign
    from repro.harness import runner
    from repro.workloads.synthetic import clear_trace_cache

    configs = _sweep_configs(name)
    # Campaigns leave their dead machines as cyclic garbage; a full
    # collect before each timed section keeps measurements independent
    # of whatever ran earlier in this process (the garbage otherwise
    # inflates every GC pass during the next campaign -- and even the
    # normalizer loop).
    gc.collect()
    normalizer = normalizer_score()
    prev_store = runner.set_result_store(None)
    prev_snaps = runner.configure_snapshots(8 if amortize else 0)
    wall = None
    campaign = None
    try:
        for _rep in range(reps):
            runner.configure_snapshots(8 if amortize else 0)
            runner.clear_cache()
            clear_trace_cache()
            gc.collect()
            t0 = time.perf_counter()
            attempt = run_campaign(configs, jobs=1)
            elapsed = time.perf_counter() - t0
            if wall is None or elapsed < wall:
                wall = elapsed
                campaign = attempt
    finally:
        runner.configure_snapshots(prev_snaps)
        runner.set_result_store(prev_store)
        runner.clear_cache()
        clear_trace_cache()
    failed = [r for r in campaign.records if r.status not in ("completed", "cached")]
    if failed:
        raise RuntimeError(
            f"sweep bench {name!r}: {len(failed)} of {len(configs)} runs "
            f"failed (first: {failed[0].error})"
        )
    snap = campaign.summary.snapshot
    forks = snap.get("hits", 0)
    builds = snap.get("misses", 0)
    ops, cores, dc_mb, seeds = SWEEP_SCENARIOS[name]
    runs_per_sec = len(configs) / wall
    return {
        "params": {"ops": ops, "cores": cores, "dc_mb": dc_mb, "seeds": seeds,
                   "schemes": list(SWEEP_SCHEMES), "workload": BENCH_WORKLOAD,
                   "amortize": amortize, "jobs": 1},
        "runs": len(configs),
        "runs_per_sec": runs_per_sec,
        "wall_total_sec": wall,
        "snapshot_forks": forks,
        "snapshot_builds": builds,
        "snapshot_hit_rate": forks / max(1, forks + builds),
        "normalizer_ops_per_sec": normalizer,
        "normalized": runs_per_sec / normalizer,
    }


def _run_service_campaign(configs, store_root, poll_s: float = 0.05,
                          runners: int = 2) -> float:
    """One distributed campaign through an in-process service; wall secs."""
    import threading

    from repro.campaign.store import ResultStore
    from repro.service.broker import Broker, BrokerServer
    from repro.service.coordinator import run_distributed_campaign
    from repro.service.runner import runner_loop

    broker = Broker(store_root, lease_s=60.0)
    server = BrokerServer(broker).start()
    stop = threading.Event()
    threads = []
    try:
        for i in range(runners):
            t = threading.Thread(
                target=runner_loop, args=(server.url,),
                kwargs=dict(jobs=1, runner_id=f"bench-r{i}", poll_s=poll_s,
                            stop=stop, give_up_after_s=None,
                            install_signal_handlers=False),
                name=f"bench-runner-{i}", daemon=True,
            )
            t.start()
            threads.append(t)
        t0 = time.perf_counter()
        campaign = run_distributed_campaign(
            configs, server.url, store=ResultStore(store_root),
            poll_s=poll_s, max_wait_s=600.0, progress=None,
        )
        wall = time.perf_counter() - t0
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        server.shutdown()
        broker.journal.close()
    bad = [r for r in campaign.records if r.status not in ("completed", "cached")]
    if bad:
        raise RuntimeError(
            f"obs bench campaign: {len(bad)} of {len(configs)} runs failed "
            f"(first: {bad[0].error})"
        )
    return wall


def run_obs_bench(quick: bool = False, reps: Optional[int] = None) -> Dict:
    """Distributed-sweep wall clock with observability off vs fully on.

    The campaign wall is dominated by scheduler/poll jitter at this
    scale, so the statistic is built to cancel it rather than outrun
    it: one untimed warmup campaign first (so neither side pays the
    cold trace cache), then ``reps`` interleaved repetitions whose
    off/on order alternates every rep (so slow drift -- thermal, cache,
    CPU clocks -- hits both sides alike), scored by the *median* rep
    per mode (an extreme like min/max re-imports the very jitter the
    interleaving cancelled).  Every campaign starts from a fresh store
    and a cold run memo, so both modes do the same simulation work and
    the delta is exactly the obs layer: structured logs, /metrics
    counters, and span files on every request.
    """
    import shutil
    import statistics
    import tempfile

    from repro import obs
    from repro.harness import runner as _runner
    from repro.harness.runner import RunConfig

    if reps is None:
        reps = 4 if quick else 5

    name = "service_obs_quick" if quick else "service_obs"
    ops, cores, dc_mb, seeds = OBS_SCENARIOS[name]
    configs = [
        RunConfig(scheme=scheme, workload="sop", num_mem_ops=ops,
                  num_cores=cores, dc_megabytes=dc_mb, seed=seed)
        for scheme in OBS_SCHEMES
        for seed in range(1, seeds + 1)
    ]
    normalizer = normalizer_score()
    previous = obs.current_config()
    walls: Dict[str, List[float]] = {"off": [], "on": []}
    workdir = tempfile.mkdtemp(prefix="repro-obs-bench-")
    try:
        obs.configure(None)
        _runner.clear_cache()
        _run_service_campaign(configs, f"{workdir}/warmup")
        for rep in range(max(1, reps)):
            order = ("off", "on") if rep % 2 == 0 else ("on", "off")
            for mode in order:
                store_root = f"{workdir}/{mode}-{rep}"
                if mode == "on":
                    obs.configure(obs.ObsConfig(
                        component="bench", obs_dir=f"{store_root}-obs",
                    ))
                else:
                    obs.configure(None)
                _runner.clear_cache()
                walls[mode].append(_run_service_campaign(configs, store_root))
    finally:
        obs.configure(previous)
        _runner.clear_cache()
        shutil.rmtree(workdir, ignore_errors=True)

    median = {mode: statistics.median(ws) for mode, ws in walls.items()}

    def _mad(ws: List[float], med: float) -> float:
        return statistics.median(abs(w - med) for w in ws)

    # Relative rep-to-rep noise floor (median absolute deviation of both
    # modes); the regression gate refuses to fail on an overhead that the
    # measurement itself cannot resolve.
    noise_frac = (
        _mad(walls["off"], median["off"]) + _mad(walls["on"], median["on"])
    ) / median["off"]
    report: Dict = {"scenarios": {}}
    for mode in ("off", "on"):
        runs_per_sec = len(configs) / median[mode]
        report["scenarios"][f"{name}_{mode}"] = {
            "params": {"ops": ops, "cores": cores, "dc_mb": dc_mb,
                       "seeds": seeds, "schemes": list(OBS_SCHEMES),
                       "workload": "sop", "runners": 2, "reps": reps,
                       "obs": mode == "on"},
            "runs": len(configs),
            "runs_per_sec": runs_per_sec,
            "wall_total_sec": median[mode],
            "wall_reps_sec": [round(w, 4) for w in walls[mode]],
            "normalizer_ops_per_sec": normalizer,
            "normalized": runs_per_sec / normalizer,
        }
    report["obs_overhead_frac"] = median["on"] / median["off"] - 1.0
    report["obs_noise_frac"] = noise_frac
    return report


def run_bench(quick: bool = False, sweep: bool = False) -> Dict:
    """Measure the selected scenarios; returns the report dict.

    ``sweep=True`` selects the campaign-amortization scenarios instead
    of the engine ones.
    """
    report: Dict = {"scenarios": {}}
    if sweep:
        names = ["sweep_quick"] if quick else ["sweep", "sweep_quick"]
        for name in names:
            report["scenarios"][name] = run_sweep_scenario(name)
        return report
    names = ["quick"] if quick else ["full", "quick"]
    for name in names:
        report["scenarios"][name] = run_scenario(name)
    return report


# -- committed-report handling -------------------------------------------------


def load_report(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def check_regression(committed: Dict, measured: Dict) -> List[str]:
    """Compare measured scenarios to a committed report.

    Returns a list of problem strings; entries starting with ``FAIL``
    gate CI, ``warn`` entries do not.  The comparison is on *normalized*
    throughput so a slower/faster CI host cancels out.
    """
    problems: List[str] = []
    for name, entry in measured["scenarios"].items():
        ref = committed.get("scenarios", {}).get(name, {}).get("current")
        if ref is None:
            problems.append(f"warn: no committed 'current' entry for {name!r}")
            continue
        got = entry["normalized"]
        want = ref["normalized"]
        if want <= 0:
            problems.append(f"warn: committed normalized for {name!r} is {want}")
            continue
        drop = 1.0 - got / want
        if drop > REGRESSION_FAIL_FRAC:
            problems.append(
                f"FAIL: {name} normalized throughput {got:.3e} is "
                f"{drop:.0%} below committed {want:.3e}"
            )
        elif drop > 0.10:
            problems.append(
                f"warn: {name} normalized throughput {got:.3e} is "
                f"{drop:.0%} below committed {want:.3e}"
            )
    frac = measured.get("obs_overhead_frac")
    if frac is not None and frac > OBS_OVERHEAD_FAIL_FRAC:
        # Campaign wall clock at bench scale carries scheduler/poll
        # jitter far above the budget; only fail when the overhead also
        # clears the run's own rep-noise floor, so the gate trips on a
        # real hot-path regression (which lands at tens of percent, not
        # five) and not on a noisy host.
        noise = float(measured.get("obs_noise_frac") or 0.0)
        if frac > max(OBS_OVERHEAD_FAIL_FRAC, 3.0 * noise):
            problems.append(
                f"FAIL: obs-enabled service sweep is {frac:.1%} slower than "
                f"obs-off (budget {OBS_OVERHEAD_FAIL_FRAC:.0%}, "
                f"noise floor {noise:.1%})"
            )
        else:
            problems.append(
                f"warn: obs overhead {frac:.1%} exceeds the "
                f"{OBS_OVERHEAD_FAIL_FRAC:.0%} budget but is within the "
                f"rep-noise floor ({noise:.1%} MAD); not failing"
            )
    return problems


def update_report(path: str, measured: Dict) -> Dict:
    """Rewrite ``current`` entries (and speedups) in the committed file.

    ``baseline`` entries are frozen pre-optimization measurements and are
    left untouched.
    """
    committed = load_report(path)
    for name, entry in measured["scenarios"].items():
        block = committed.setdefault("scenarios", {}).setdefault(name, {})
        block["current"] = entry
        base = block.get("baseline")
        if base and base.get("normalized"):
            block["speedup_normalized"] = entry["normalized"] / base["normalized"]
    if "obs_overhead_frac" in measured:
        committed["obs_overhead"] = {
            "frac": measured["obs_overhead_frac"],
            "noise_frac": measured.get("obs_noise_frac"),
            "fail_frac": OBS_OVERHEAD_FAIL_FRAC,
        }
    with open(path, "w") as fh:
        json.dump(committed, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return committed
