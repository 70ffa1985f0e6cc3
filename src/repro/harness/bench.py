"""Opcode meter: the cost gate for the simulator, its campaigns and obs.

``repro bench`` counts the Python opcodes (``sys.settrace`` opcode
events) of three fixed scenarios after one untraced warm-up, per
``repro`` package, and compares them with ``BENCH_engine.json``.  A
count is exact and host-independent, so a 5% gate resolves what paired
timings on a shared host cannot; it depends on the Python minor
version, so the report keeps one set per version.  The meter cannot see
C code or I/O (an fsync per log line, slower pickling, a larger numpy
trace): perfbench's ``cpu_s`` and ``wall_s`` bounds cover those.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import repro
from repro import obs
from repro.campaign import run_campaign
from repro.config.system import scaled_system
from repro.harness import runner
from repro.service.broker import Broker, BrokerServer
from repro.service.protocol import BrokerClient, batch_id_for
from repro.service.runner import runner_loop
from repro.system.builder import build_machine
from repro.workloads.synthetic import clear_trace_cache

REPORT = Path(__file__).resolve().parents[3] / "BENCH_engine.json"
# Opcodes per memory op may move this far either way from the report.
TOLERANCE = 0.05
# Obs on may execute at most this fraction more opcodes than obs off.
OBS_OVERHEAD_FAIL_FRAC = 0.05

ENGINE_SCHEMES = ("baseline", "tid", "tdc", "nomad")
SWEEP_SCHEMES = ("tid", "tdc", "nomad")
OBS_SCHEMES = ("baseline", "tdc", "nomad")
# Ops per core, cores, DC megabytes, and the seed or seeds 1..N.
ENGINE = {"workload": "cact", "ops": 1500, "cores": 2, "dc_mb": 16, "seed": 1}
SWEEP = {"workload": "cact", "ops": 300, "cores": 2, "dc_mb": 32, "seeds": 12}
OBS = {"workload": "sop", "ops": 300, "cores": 2, "dc_mb": 8, "seeds": 4}

_PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep

Packages = Dict[str, int]


def python_version() -> str:
    """The report key of the running interpreter: ``major.minor``."""
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def _package(filename: str) -> str:
    """``cache`` for ``repro/cache/...``, ``snapshot`` for
    ``repro/snapshot.py``, ``other`` outside ``repro``."""
    if not filename.startswith(_PACKAGE_ROOT):
        return "other"
    head = filename[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
    return head.removesuffix(".py")


def count(fn: Callable[[], object]) -> Tuple[object, Packages]:
    """Call *fn* under the meter: ``(its result, opcodes per package)``.

    Counts this thread and every thread started while *fn* runs, each
    into its own counters, and joins those threads before reading them.
    A full collection first makes the cyclic GC run at the same points
    whatever ran before.
    """
    reads: List[Tuple[str, Callable[[], int]]] = []  # per thread and file

    def counter(filename: str):
        n = 0

        def tick(frame, event, arg):
            nonlocal n
            if event == "opcode":
                n += 1
            return tick

        reads.append((filename, lambda: n))
        return tick

    def tracer():
        ticks: Dict[str, Callable] = {}

        def on_call(frame, event, arg):
            frame.f_trace_opcodes = True
            name = frame.f_code.co_filename
            tick = ticks.get(name)
            if tick is None:
                tick = ticks[name] = counter(name)
            return tick

        return on_call

    def adopt(frame, event, arg):
        # A new thread's first call installs that thread's own tracer.
        on_call = tracer()
        sys.settrace(on_call)
        return on_call(frame, event, arg)

    gc.collect()
    before = set(threading.enumerate())
    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(adopt)
    sys.settrace(tracer())
    try:
        result = fn()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError(f"thread {thread.name!r} outlived the count")
    packages: Packages = {}
    for filename, read in reads:
        package = _package(filename)
        packages[package] = packages.get(package, 0) + read()
    return result, packages


def uncounted(fn: Callable[[], object]) -> Tuple[object, Packages]:
    return fn(), {}


def _entry(params: dict, mem_ops: int, packages: Packages, **extra) -> dict:
    opcodes = sum(packages.values())
    return {"params": params, "opcodes": opcodes, "mem_ops": mem_ops,
            "per_mem_op": round(opcodes / mem_ops, 1),
            "packages": dict(sorted(packages.items(), key=lambda kv: -kv[1])),
            **extra}


def _clear_caches() -> None:
    runner.clear_cache()
    runner.clear_snapshot_cache()
    clear_trace_cache()


@contextlib.contextmanager
def _cold_caches():
    """No result store and empty memo, snapshot and trace caches for
    the block; the caches are emptied again after it."""
    previous = runner.set_result_store(None)
    _clear_caches()
    try:
        yield
    finally:
        runner.set_result_store(previous)
        _clear_caches()


def _configs(shape: dict, schemes) -> list:
    return [runner.RunConfig(scheme=scheme, workload=shape["workload"],
                             num_mem_ops=shape["ops"], seed=seed,
                             num_cores=shape["cores"],
                             dc_megabytes=shape["dc_mb"])
            for scheme in schemes for seed in range(1, shape["seeds"] + 1)]


def engine(meter=count) -> Dict[str, dict]:
    """``Machine.run()`` of a fresh build, per scheme."""
    s, out = ENGINE, {}
    for scheme in ENGINE_SCHEMES:
        machine = build_machine(
            scheme, workload_name=s["workload"], num_mem_ops=s["ops"],
            cfg=scaled_system(num_cores=s["cores"], dc_megabytes=s["dc_mb"]),
            seed=s["seed"])
        out[f"engine.{scheme}"] = _entry(dict(s, scheme=scheme),
                                         s["ops"] * s["cores"],
                                         meter(machine.run)[1])
    return out


def sweep(meter=count) -> Dict[str, dict]:
    """``run_campaign(jobs=1)`` over the sweep grid, from cold caches."""
    s, configs = SWEEP, _configs(SWEEP, SWEEP_SCHEMES)
    with _cold_caches():
        campaign, packages = meter(
            functools.partial(run_campaign, configs, jobs=1))
    if not campaign.ok:
        raise RuntimeError(f"sweep: {campaign.failures()[0].error}")
    return {"sweep": _entry(
        dict(s, schemes=list(SWEEP_SCHEMES)),
        len(configs) * s["ops"] * s["cores"], packages,
        forks=campaign.summary.snapshot["hits"],
        builds=campaign.summary.snapshot["misses"])}


def _exchange(url: str, payloads: List[dict]) -> List[dict]:
    """One scripted client in this thread: one batch per config, a
    runner loop that executes them all, then records and status."""
    client, meta, span = BrokerClient(url), {}, None
    tracer = obs.service_tracer("coordinator")
    if tracer is not None:
        span = tracer.span("campaign", obs.new_trace_id()).begin()
        meta["trace"] = {"trace_id": span.trace_id, "span_id": span.span_id}
    client.enqueue("bench", [
        {"batch_id": batch_id_for("bench", [p]), "indices": [i],
         "configs": [p]} for i, p in enumerate(payloads)
    ], meta, manifest=payloads)
    runner_loop(url, runner_id="bench", max_batches=len(payloads),
                install_signal_handlers=False)
    records = client.records("bench")
    client.status("bench")
    if span is not None:
        span.end(records=len(records))
    return records


def obs_exchange(meter=count) -> Dict[str, dict]:
    """The service exchange with observability off, then fully on."""
    s, out = OBS, {}
    payloads = [c.to_dict() for c in _configs(s, OBS_SCHEMES)]
    previous = obs.current_config()
    workdir = tempfile.mkdtemp(prefix="repro-bench-")
    try:
        for mode in ("off", "on"):
            root = os.path.join(workdir, mode)
            on = obs.ObsConfig(component="bench", obs_dir=root + "-obs")
            obs.configure(on if mode == "on" else None)
            # Started before counting: serve_forever polls on a timer.
            server = BrokerServer(Broker(root, lease_s=60.0)).start()
            try:
                with _cold_caches():
                    records, packages = meter(
                        functools.partial(_exchange, server.url, payloads))
            finally:
                server.shutdown()
                server.broker.journal.close()
                server.broker.index.close()
            if any(r["status"] != "completed" for r in records):
                raise RuntimeError(f"obs.{mode}: a run did not complete")
            out[f"obs.{mode}"] = _entry(
                dict(s, schemes=list(OBS_SCHEMES), obs=mode == "on"),
                len(payloads) * s["ops"] * s["cores"], packages)
    finally:
        obs.configure(previous)
        shutil.rmtree(workdir, ignore_errors=True)
    return out


SCENARIOS = (engine, sweep, obs_exchange)


def measure() -> Dict[str, dict]:
    """One untraced warm-up of every scenario, then their counts."""
    for scenario in SCENARIOS:
        scenario(uncounted)
    return {k: v for scenario in SCENARIOS for k, v in scenario().items()}


def obs_ratio(entries: Dict[str, dict]) -> float:
    return entries["obs.on"]["opcodes"] / entries["obs.off"]["opcodes"]


def check(committed: Dict[str, dict], measured: Dict[str, dict]) -> List[str]:
    """Every gate *measured* fails against *committed*, one line each."""
    problems = []
    for name, entry in measured.items():
        ref = committed.get(name)
        if ref is None or ref["params"] != entry["params"]:
            problems.append(f"{name}: no committed count"
                            + (f" at {entry['params']}" if ref else ""))
            continue
        change = entry["per_mem_op"] / ref["per_mem_op"] - 1.0
        if abs(change) > TOLERANCE:
            problems.append(
                f"{name}: {entry['per_mem_op']:,.1f} opcodes per memory op, "
                f"{change:+.1%} against the committed "
                f"{ref['per_mem_op']:,.1f} (limit ±{TOLERANCE:.0%})"
                + ("; if the saving is real, re-record with "
                   "`repro bench --update`" if change < 0 else ""))
        for key in ("forks", "builds"):
            if entry.get(key) != ref.get(key):
                problems.append(f"{name}: {entry.get(key)} {key}, "
                                f"committed {ref.get(key)}")
    ratio = obs_ratio(measured) if "obs.on" in measured else 1.0
    if ratio > 1 + OBS_OVERHEAD_FAIL_FRAC:
        problems.append(f"obs: on/off opcode ratio {ratio:.4f} exceeds "
                        f"{1 + OBS_OVERHEAD_FAIL_FRAC:.2f}")
    return problems


def load_report() -> dict:
    """The committed report; empty when there is none yet."""
    try:
        with open(REPORT) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def write_counts(report: dict, measured: Dict[str, dict]) -> None:
    """Replace the running interpreter's counts in *report*, keep every
    other version's, and write it to :data:`REPORT`."""
    report.setdefault("counts", {})[python_version()] = measured
    with open(REPORT, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
