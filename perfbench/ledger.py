"""Which entry points the traced run wraps, and the per-layer metrics.

A *layer* is a package under ``src/repro/``.  :func:`instrument` wraps
each layer's public entry points with a :class:`~layers.LayerTracer`
(and ``tracer.unpatch()`` restores them); :func:`per_layer_metrics`
turns the tracer's spans and sampled self time, plus the program's own
counters, into the named per-layer metrics of ``BENCHMARK.json``.

Counts come from the program's own counters: ``Machine.metrics()`` and
the core and simulator attributes behind ``MachineResult`` (summed over
every machine a workload runs), ``cache_stats()``, the broker's
``/metrics`` and ``Journal.stats()``.  At a fixed seed the simulated
counts repeat exactly (:data:`SIMULATED_COUNTS`).  Times are seconds of
the traced run: ``<package>.self_s`` is sampled CPU time charged to the
package, ``<package>.self_s.<phase>`` the same within one phase, and the
other ``*_s`` metrics are wall time summed over the spans of one entry
point (inclusive of the calls beneath it).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from layers import PHASES

PACKAGES = ("workloads", "system", "snapshot", "engine", "cpu", "vm", "cache",
            "schemes", "core", "dram", "common", "harness", "campaign",
            "service", "obs", "telemetry", "guard")
# Self-time buckets beyond the packages: the benchmark's own frames,
# threads with no repro frame, and repro modules outside PACKAGES.
BUCKETS = PACKAGES + ("bench", "unattributed", "misc")
# Packages doing both prewarm (build) and event-loop (run) work.
SPLIT_PACKAGES = ("cpu", "vm", "cache", "schemes", "core", "dram", "common")
ENDPOINTS = ("enqueue", "claim", "complete", "heartbeat", "status")
GAPS = ("ipc_gain_tdc_gap_pp", "ipc_gain_tid_gap_pp",
        "stall_reduction_gap_pp", "buffer_served_gap_pp")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [("trace.overhead_frac", "ratio"), ("trace.cpu_s", "s"),
     ("trace.untraced_cpu_s", "s"), ("trace.wall_s", "s"),
     ("trace.sampled_frac", "ratio"), ("trace.spans", "count")]
    + [(f"phase.{p}_s", "s") for p in PHASES]
    + [(f"{p}.self_s", "s") for p in BUCKETS]
    + [(f"{p}.self_s.{ph}", "s") for p in SPLIT_PACKAGES for ph in ("build", "run")]
    + [("workloads.trace_s", "s"), ("workloads.traces_built", "count"),
       ("workloads.trace_lookups", "count"), ("workloads.trace_hit_rate", "ratio"),
       ("system.build_s", "s"), ("system.prewarm_s", "s"),
       ("system.builds", "count"),
       ("snapshot.dump_s", "s"), ("snapshot.restore_s", "s"),
       ("snapshot.dumps", "count"), ("snapshot.forks", "count"),
       ("snapshot.lookups", "count"), ("snapshot.hit_rate", "ratio"),
       ("engine.run_s", "s"), ("engine.events", "count"),
       ("engine.events_per_s", "1/s"),
       ("cpu.instructions", "count"), ("cpu.mem_ops", "count"),
       ("cpu.cycles", "count"), ("cpu.os_stall_frac", "ratio"),
       ("vm.tlb_misses", "count"),
       ("cache.access_s", "s"), ("cache.llc_accesses", "count"),
       ("cache.llc_misses", "count"),
       ("schemes.dc_access_s", "s"), ("schemes.dc_reads", "count"),
       ("schemes.page_fills", "count"), ("schemes.page_writebacks", "count"),
       ("core.buffer_served_frac", "ratio"), ("core.data_misses", "count"),
       ("core.tag_mgmt_cycles", "count"),
       ("dram.access_s", "s"), ("dram.accesses", "count"),
       ("dram.hbm_row_hit_rate", "ratio"), ("dram.hbm_bursts", "count"),
       ("dram.ddr_row_hit_rate", "ratio"), ("dram.ddr_bursts", "count"),
       ("harness.memo_hits", "count"),
       ("campaign.store_put_s", "s"), ("campaign.store_get_s", "s"),
       ("campaign.store_puts", "count"), ("campaign.store_gets", "count"),
       ("campaign.retries", "count")]
    + [(f"service.request_s.{e}", "s") for e in ENDPOINTS]
    + [(f"service.requests.{e}", "count") for e in ENDPOINTS]
    + [("service.broker_s", "s"), ("service.journal_s", "s"),
       ("service.index_s", "s"), ("service.poll_wait_s", "s"),
       ("service.runner_idle_s", "s"), ("service.journal_appends", "count"),
       ("service.retries", "count"), ("service.requeues", "count"),
       ("service.duplicate_completes", "count"),
       ("obs.log_lines", "count"), ("obs.spans", "count"),
       ("telemetry.summarize_s", "s"), ("telemetry.trace_events", "count"),
       ("telemetry.samples", "count"), ("telemetry.dropped", "count"),
       ("telemetry.overlap_frac", "ratio"), ("telemetry.fills", "count"),
       ("guard.sweeps", "count"), ("guard.violations", "count")]
    + [(f"fidelity.{g}", "pp") for g in GAPS]
)

#: Counts the simulation determines: equal at one seed, every run.
SIMULATED_COUNTS = (
    "engine.events", "cpu.instructions", "cpu.mem_ops", "cpu.cycles",
    "vm.tlb_misses", "cache.llc_accesses", "cache.llc_misses",
    "schemes.dc_reads", "schemes.page_fills", "schemes.page_writebacks",
    "core.data_misses", "core.tag_mgmt_cycles", "dram.accesses",
    "dram.hbm_bursts", "dram.ddr_bursts", "workloads.traces_built",
    "snapshot.dumps", "snapshot.forks", "system.builds",
)


def instrument(tracer, counts: Counter) -> None:
    """Wrap every layer's public entry points; ``counts`` receives the
    counters of each machine that finishes a run."""
    import repro.campaign as campaign
    from repro.cache.hierarchy import CacheHierarchy
    from repro.campaign import executor
    from repro.campaign.store import ResultStore
    from repro.dram.device import DRAMDevice
    from repro.harness import runner
    from repro.schemes.base import SchemeBase
    from repro.service import runner as service_runner
    from repro.service.broker import Broker
    from repro.service.index import ResultIndex
    from repro.service.journal import Journal
    from repro.service.protocol import BrokerClient
    from repro.system import builder
    from repro.system.machine import Machine
    from repro.telemetry import timeline, trace_schema
    from repro.workloads import synthetic

    patch = tracer.patch
    for module in (synthetic, builder):
        patch(module, "materialized_trace", "materialized_trace", "workloads", "build")
    for module in (builder, runner):
        patch(module, "build_machine", "build_machine", "system", "build")
    patch(Machine, "prewarm_pages", "Machine.prewarm_pages", "system", "build")
    patch(Machine, "snapshot", "Machine.snapshot", "snapshot", "build")
    patch(Machine, "restore", "Machine.restore", "snapshot", "build")
    patch(Machine, "run", "Machine.run", "engine", "run",
          after=lambda args, result: count_machine(counts, args[0], result))

    patch(CacheHierarchy, "access", "CacheHierarchy.access", "cache", hot=True)
    schemes, todo = [], [SchemeBase]
    while todo:
        cls = todo.pop()
        schemes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in schemes:
        if "dc_access" in cls.__dict__:
            patch(cls, "dc_access", f"{cls.__name__}.dc_access", "schemes", hot=True)
    patch(DRAMDevice, "access", "DRAMDevice.access", "dram", hot=True)

    for module in (campaign, executor, service_runner):
        patch(module, "run_campaign", "run_campaign", "campaign", "other")
    patch(ResultStore, "put", "ResultStore.put", "campaign")
    patch(ResultStore, "get", "ResultStore.get", "campaign")
    patch(Journal, "append", "Journal.append", "service")
    for attr in ("ingest_result", "ingest_failure"):
        patch(ResultIndex, attr, f"ResultIndex.{attr}", "service")
    for attr in ENDPOINTS + ("records",):
        patch(Broker, attr, f"broker.{attr}", "service", "other")
        patch(BrokerClient, attr, f"client.{attr}", "service", "other")
    patch(BrokerClient, "probe", "client.probe", "service", "other")
    patch(service_runner, "execute_batch", "execute_batch", "service", "other")

    patch(timeline, "load_trace", "load_trace", "telemetry", "summary")
    patch(trace_schema, "validate_trace", "validate_trace", "telemetry", "summary")
    patch(timeline, "summarize_trace", "summarize_trace", "telemetry", "summary")


def count_machine(counts: Counter, machine, result) -> None:
    """Add one finished machine's counters to ``counts``."""
    metrics = machine.metrics()
    counts["engine.events"] += machine.sim.events_processed
    for core in machine.cores:
        counts["cpu.instructions"] += core.inst_count
        counts["cpu.mem_ops"] += core.mem_ops
        counts["cpu.cycles"] += core.finish_time or 0
        counts["cpu.os_stall_cycles"] += core.os_stall_cycles
        counts["vm.tlb_misses"] += core.tlb_misses
    counts["cache.llc_accesses"] += metrics.get("hierarchy.llc_accesses", 0)
    counts["cache.llc_misses"] += metrics.get("hierarchy.llc_misses", 0)
    counts["schemes.dc_reads"] += metrics.get(f"scheme.{result.scheme}.dc_reads", 0)
    counts["schemes.page_fills"] += result.page_fills
    counts["schemes.page_writebacks"] += result.page_writebacks
    # Data misses served from page copy buffers, with their base, as
    # NomadBackend.buffer_hit_ratio counts them.
    served = (metrics.get("backend.buffer_hits", 0)
              + metrics.get("backend.buffer_write_merges", 0))
    counts["core.buffer_served"] += served
    counts["core.data_misses"] += served + metrics.get("backend.sub_entry_waits", 0)
    tag = metrics.get("frontend.tag_mgmt_latency.count", 0)
    if tag:
        counts["core.tag_mgmt_cycles"] += round(
            metrics["frontend.tag_mgmt_latency.mean"] * tag)
    for device in ("hbm", "ddr"):
        counts["dram.accesses"] += metrics.get(f"{device}.accesses", 0)
        for key, value in metrics.items():
            if key.startswith(f"{device}.ch"):
                kind = key.rsplit(".", 1)[1]
                if kind == "row_hits":
                    counts[f"dram.{device}_row_hits"] += value
                if kind in ("row_hits", "row_closed", "row_conflicts"):
                    counts[f"dram.{device}_bursts"] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, counts: Counter, caches: Dict[str, Dict[str, int]],
                      cpu_s: float, wall_s: float, untraced_cpu_s: float,
                      runner_thread: int = 0,
                      gaps: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced region.

    ``caches`` is the change in ``repro.harness.runner.cache_stats()``
    across the region; ``runner_thread`` the ident of the service runner
    thread, if the workload has one.
    """

    def wall(*names: str) -> float:
        return sum(s.wall for s in tracer.spans_named(*names))

    def hot(match) -> float:
        return sum(v[1] for k, v in tracer.hot.items() if match(k))

    sampled = tracer.sampled_cpu()
    out: Dict[str, float] = {
        "trace.overhead_frac": _ratio(cpu_s, untraced_cpu_s) - 1.0,
        "trace.cpu_s": cpu_s,
        "trace.untraced_cpu_s": untraced_cpu_s,
        "trace.wall_s": wall_s,
        "trace.sampled_frac": _ratio(sampled, cpu_s),
        "trace.spans": len(tracer.spans),
    }
    for phase in PHASES:
        out[f"phase.{phase}_s"] = tracer.phase_cpu(phase)
    for package in BUCKETS[:-1]:
        out[f"{package}.self_s"] = tracer.package_cpu(package)
    out["misc.self_s"] = sum(v for (_, pkg), v in tracer.self_cpu.items()
                             if pkg not in BUCKETS)
    for package in SPLIT_PACKAGES:
        for phase in ("build", "run"):
            out[f"{package}.self_s.{phase}"] = tracer.package_cpu(package, phase)

    trace, snap, memo = caches["trace"], caches["snapshot"], caches["memo"]
    lookups = trace["hits"] + trace["misses"] + trace["disk_hits"]
    snap_lookups = snap["hits"] + snap["misses"]
    run_wall = wall("Machine.run")
    out.update({
        "workloads.trace_s": wall("materialized_trace"),
        "workloads.traces_built": trace["misses"],
        "workloads.trace_lookups": lookups,
        "workloads.trace_hit_rate": _ratio(lookups - trace["misses"], lookups),
        "system.build_s": wall("build_machine"),
        "system.prewarm_s": wall("Machine.prewarm_pages"),
        "system.builds": len(tracer.spans_named("build_machine")),
        "snapshot.dump_s": wall("Machine.snapshot"),
        "snapshot.restore_s": wall("Machine.restore"),
        "snapshot.dumps": snap["stores"],
        "snapshot.forks": snap["hits"],
        "snapshot.lookups": snap_lookups,
        "snapshot.hit_rate": _ratio(snap["hits"], snap_lookups),
        "engine.run_s": run_wall,
        "engine.events": counts["engine.events"],
        "engine.events_per_s": _ratio(counts["engine.events"], run_wall),
        "cpu.instructions": counts["cpu.instructions"],
        "cpu.mem_ops": counts["cpu.mem_ops"],
        "cpu.cycles": counts["cpu.cycles"],
        "cpu.os_stall_frac": _ratio(counts["cpu.os_stall_cycles"], counts["cpu.cycles"]),
        "vm.tlb_misses": counts["vm.tlb_misses"],
        "cache.access_s": hot(lambda k: k.startswith("CacheHierarchy.")),
        "cache.llc_accesses": counts["cache.llc_accesses"],
        "cache.llc_misses": counts["cache.llc_misses"],
        "schemes.dc_access_s": hot(lambda k: k.endswith(".dc_access")),
        "schemes.dc_reads": counts["schemes.dc_reads"],
        "schemes.page_fills": counts["schemes.page_fills"],
        "schemes.page_writebacks": counts["schemes.page_writebacks"],
        "core.buffer_served_frac": _ratio(counts["core.buffer_served"],
                                          counts["core.data_misses"]),
        "core.data_misses": counts["core.data_misses"],
        "core.tag_mgmt_cycles": counts["core.tag_mgmt_cycles"],
        "dram.access_s": hot(lambda k: k.startswith("DRAMDevice.")),
        "dram.accesses": counts["dram.accesses"],
        "dram.hbm_row_hit_rate": _ratio(counts["dram.hbm_row_hits"],
                                        counts["dram.hbm_bursts"]),
        "dram.hbm_bursts": counts["dram.hbm_bursts"],
        "dram.ddr_row_hit_rate": _ratio(counts["dram.ddr_row_hits"],
                                        counts["dram.ddr_bursts"]),
        "dram.ddr_bursts": counts["dram.ddr_bursts"],
        "harness.memo_hits": memo["hits"],
        "campaign.store_put_s": wall("ResultStore.put"),
        "campaign.store_get_s": wall("ResultStore.get"),
        "campaign.store_puts": len(tracer.spans_named("ResultStore.put")),
        "campaign.store_gets": len(tracer.spans_named("ResultStore.get")),
        "campaign.retries": counts["campaign.retries"],
    })
    for endpoint in ENDPOINTS:
        out[f"service.request_s.{endpoint}"] = wall(f"client.{endpoint}")
        out[f"service.requests.{endpoint}"] = counts[f"service.requests.{endpoint}"]
    poll_wait = sum(tracer.self_wait(s)
                    for s in tracer.spans_named("run_distributed_campaign"))
    runner_busy = sum(s.wall for s in tracer.spans
                      if s.thread == runner_thread and not s.parent_id)
    out.update({
        "service.broker_s": sum(s.wall for s in tracer.spans
                                if s.name.startswith("broker.")),
        "service.journal_s": wall("Journal.append"),
        "service.index_s": wall("ResultIndex.ingest_result",
                                "ResultIndex.ingest_failure"),
        "service.poll_wait_s": poll_wait,
        "service.runner_idle_s": (max(0.0, wall_s - runner_busy)
                                  if runner_thread else 0.0),
        "service.journal_appends": counts["service.journal_appends"],
        "service.retries": counts["service.retries"],
        "service.requeues": counts["service.requeues"],
        "service.duplicate_completes": counts["service.duplicate_completes"],
        "obs.log_lines": counts["obs.log_lines"],
        "obs.spans": counts["obs.spans"],
        "telemetry.summarize_s": wall("summarize_trace"),
    })
    for name in ("trace_events", "samples", "dropped", "overlap_frac", "fills"):
        out[f"telemetry.{name}"] = counts[f"telemetry.{name}"]
    out["guard.sweeps"] = counts["guard.sweeps"]
    out["guard.violations"] = counts["guard.violations"]
    for gap in GAPS:
        out[f"fidelity.{gap}"] = (gaps or {}).get(gap, 0.0)
    return out
