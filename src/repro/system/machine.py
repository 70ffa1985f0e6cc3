"""The simulated machine: cores + scheme + run loop.

``Machine.run`` drives the event queue until every core has drained its
trace, then snapshots a :class:`MachineResult` with the metrics the
paper's figures report: IPC, stall-cycle breakdowns, DC access time,
bandwidth by traffic class, row-buffer hit rates, tag-management
latency, and the derived Table I characteristics (RMHB, LLC MPMS).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.inline_state import InlineState
from repro.common.types import PAGE_SIZE, TrafficClass
from repro.config.system import SystemConfig
from repro.cpu.core import Core
from repro.engine.simulator import Simulator
from repro.guard.errors import DeadlockError


@dataclass
class MachineResult:
    """Everything the experiment harness needs from one run."""

    scheme: str
    workload: str
    runtime_cycles: int
    instructions: int
    ipc: float
    per_core_ipc: List[float]
    stall_breakdown: Dict[str, float]
    os_stall_ratio: float
    dc_access_time: float
    llc_misses: int
    llc_mpms: float
    page_fills: int
    page_writebacks: int
    rmhb_gbps: float
    hbm_bytes_by_class: Dict[str, int]
    ddr_bytes_by_class: Dict[str, int]
    hbm_bandwidth_gbps: float
    ddr_bandwidth_gbps: float
    hbm_row_hit_rate: float
    ddr_row_hit_rate: float
    dc_access_p95: int = 0
    tag_mgmt_latency: Optional[float] = None
    buffer_hit_ratio: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, other: "MachineResult") -> float:
        """IPC relative to another run of the same workload."""
        if other.ipc <= 0:
            return 0.0
        return self.ipc / other.ipc

    def to_dict(self) -> Dict:
        """JSON-serializable flat view (for the CLI and log files)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "MachineResult":
        """Inverse of :meth:`to_dict` (campaign store / worker transport)."""
        from dataclasses import fields as dc_fields

        known = {f.name for f in dc_fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"MachineResult.from_dict: unknown keys {sorted(unknown)}"
            )
        return cls(**d)


class Machine(InlineState):
    """One configured simulation: scheme + per-core traces."""

    def __init__(self, cfg: SystemConfig, scheme, traces, workload_name: str = "",
                 specs=None, seed: Optional[int] = None):
        if len(traces) != cfg.num_cores:
            raise ValueError(
                f"need {cfg.num_cores} traces, got {len(traces)}"
            )
        self.cfg = cfg
        self.scheme = scheme
        self.sim: Simulator = scheme.sim
        self.workload_name = workload_name
        self._finished = 0
        # Provenance for snapshot/fork: with the per-core WorkloadSpecs
        # and the seed recorded, a restored machine can re-materialize
        # its traces instead of carrying them in the pickle (see
        # :meth:`snapshot`).  Machines built from raw trace lists keep
        # None here and simply cannot be snapshotted.
        self._specs = list(specs) if specs is not None else None
        self._seed = seed
        self.cores = [
            Core(self.sim, i, cfg.core, scheme, trace, on_finish=self._core_done)
            for i, trace in enumerate(traces)
        ]

    def _core_done(self, _core: Core) -> None:
        self._finished += 1

    # -- warmup ------------------------------------------------------------

    def prewarm_pages(self, core_pages: List[list]) -> None:
        """Functionally pre-cache pages per core (the paper's fast-forward).

        Entries are bare VPNs or ``(vpn, dirty)`` pairs.  Cores are
        interleaved so the FIFO frame queue ends up age-mixed across
        cores, as it would be in steady state; the scheme warms the
        interleaved ``(core, vpn, dirty)`` list in one pass.
        """
        pages = []
        longest = max((len(p) for p in core_pages), default=0)
        for i in range(longest):
            for core_id, plan in enumerate(core_pages):
                if i >= len(plan):
                    continue
                entry = plan[i]
                if isinstance(entry, tuple):
                    vpn, dirty = entry
                else:
                    vpn, dirty = entry, False
                pages.append((core_id, vpn, dirty))
        self.scheme.warm_pages(pages)

    # -- snapshot / fork ---------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the built+prewarmed machine for later forking.

        Must be taken at the build+prewarm boundary: prewarm is
        functional, so the event queue is empty and no scheduled closure
        needs to survive pickling.  The blob excludes the traces (cores
        drop them, see ``Core.__getstate__``); :meth:`restore`
        re-materializes them from the recorded specs, which is what lets
        one snapshot serve every (seed, num_mem_ops).

        Pickling reads every object's instance ``__dict__``, which on
        CPython 3.11+ leaves *this* machine on the slow attribute path
        for the rest of its life (its forks are not, see :meth:`restore`).
        Campaigns therefore snapshot only builds that a later run of
        theirs will fork (``simulate(prime_snapshots=)``).
        """
        import pickle

        from repro.snapshot import SNAPSHOT_VERSION, SnapshotError

        if self._specs is None or self._seed is None:
            raise SnapshotError(
                "machine was built from raw traces (no WorkloadSpecs "
                "recorded); only builder-produced machines can snapshot"
            )
        if self.sim.events_processed or self.sim.pending_events:
            raise SnapshotError(
                f"snapshot must be taken before the run starts "
                f"(events_processed={self.sim.events_processed}, "
                f"pending={self.sim.pending_events})"
            )
        payload = {
            "version": SNAPSHOT_VERSION,
            "machine": self,
            "specs": self._specs,
            "seed": self._seed,
        }
        # Same rationale as run(): serializing the machine graph churns
        # through thousands of temporaries and cyclic-GC passes over the
        # (large) live heap are pure overhead here.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            if was_enabled:
                gc.enable()

    @classmethod
    def restore(cls, blob: bytes, seed: Optional[int] = None,
                num_mem_ops: Optional[int] = None) -> "Machine":
        """Fork a machine from a :meth:`snapshot` blob.

        Every call deserializes a fresh, independent object graph, so
        forks never share mutable state.  ``seed``/``num_mem_ops``
        override the ROI-side knobs the snapshot is independent of; the
        traces are re-materialized accordingly (hitting the trace cache
        when warm).  The forked machine is bit-identical to a freshly
        built one -- pinned by the golden fork test.  Its objects get
        their attributes assigned one by one
        (:class:`~repro.common.inline_state.InlineState`), never through
        ``__dict__``, so the fork runs as fast as a fresh build.
        """
        import pickle

        from repro.snapshot import SNAPSHOT_VERSION, SnapshotError
        from repro.workloads.synthetic import materialized_trace

        # Unpickling materializes the whole machine graph (thousands of
        # objects: PCSHRs, SRAM sets, TiD's tag dicts); with collection
        # enabled every few thousand allocations trigger a full-heap GC
        # pass, which can make a fork cost as much as the build it
        # replaces.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise SnapshotError(f"unreadable snapshot: {exc}") from exc
        finally:
            if was_enabled:
                gc.enable()
        if not isinstance(payload, dict) or "version" not in payload:
            raise SnapshotError("unreadable snapshot: not a snapshot payload")
        version = payload["version"]
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} is not the supported "
                f"version {SNAPSHOT_VERSION!r}; rebuild instead of forking"
            )
        machine: "Machine" = payload["machine"]
        specs = payload["specs"]
        if seed is None:
            seed = payload["seed"]
        new_specs = []
        for core, spec in zip(machine.cores, specs):
            if num_mem_ops is not None and spec.num_mem_ops != num_mem_ops:
                spec = spec.scaled(num_mem_ops=num_mem_ops)
            core.attach_trace(materialized_trace(spec, seed, core.core_id))
            new_specs.append(spec)
        machine._specs = new_specs
        machine._seed = seed
        return machine

    # -- run ------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None, guard=None,
            telemetry=None) -> MachineResult:
        """Drive the simulation to completion.

        ``guard`` opts into paranoid mode (off by default, so golden
        bit-identity and bench numbers are untouched): pass ``True``, a
        ``repro.guard.GuardConfig``, or a ``repro.guard.Guard``.  A
        guarded run validates component invariants every N events, trips
        a forward-progress watchdog on livelock/deadlock, and writes a
        diagnostic bundle (replayable via ``python -m repro replay``)
        when it dies.

        ``telemetry`` opts into observability (``True``, a
        ``repro.telemetry.TelemetryConfig``, or a ``Telemetry``): a
        cycle sampler plus a span tracer whose hooks are strictly
        read-only, so observed runs stay bit-identical too.  When the
        run dies under a guard, the crash bundle carries the last
        telemetry window.
        """
        from repro.guard import as_guard
        from repro.telemetry import as_telemetry

        guard_obj = as_guard(guard)
        tel_obj = as_telemetry(telemetry)
        if guard_obj is not None:
            guard_obj.install(self)
            self.sim.attach_guard(guard_obj)
        if tel_obj is not None:
            tel_obj.install(self)
        for core in self.cores:
            core.start()
        # The event loop allocates heavily (events, closures, cache
        # lines) while the big structures (SRAM and TiD sets) stay live;
        # cyclic GC scans of those structures are pure overhead for the
        # duration of the run, so pause collection and let refcounting
        # do the work.  Purely a wall-clock optimization: the simulation
        # itself is allocation-order independent.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            try:
                self.sim.run(max_events=max_events)
                if guard_obj is not None:
                    # Catch corruption introduced after the last sweep.
                    guard_obj.check_now()
                if self._finished != len(self.cores):
                    raise DeadlockError(self._stall_report())
            except Exception as exc:
                if guard_obj is not None:
                    guard_obj.last_exception = exc
                    guard_obj.events_at_failure = self.sim.events_processed
                    if tel_obj is not None:
                        guard_obj.telemetry_window = tel_obj.last_window()
                    bundle_path = guard_obj.write_bundle(exc)
                    if bundle_path is not None:
                        try:
                            exc.bundle_path = str(bundle_path)
                        except AttributeError:
                            pass  # exceptions with __slots__
                raise
        finally:
            # Exception-safe teardown: whatever killed the run, gc comes
            # back on and the guard and telemetry hooks detach.
            if was_enabled:
                gc.enable()
            if guard_obj is not None:
                self.sim.attach_guard(None)
            if tel_obj is not None:
                tel_obj.uninstall()
        result = self.result()
        if tel_obj is not None:
            tel_obj.finalize(self, result)
        return result

    def _stall_report(self) -> str:
        """Queue head + per-component summaries for a stalled drain."""
        from repro.guard.core import progress_report

        lines = [
            f"simulation stalled: {self._finished}/{len(self.cores)} cores "
            f"finished, {self.sim.pending_events} events pending"
        ]
        lines.extend(progress_report(self))
        return "\n".join(lines)

    def metrics(self) -> Dict[str, float]:
        """Flat ``{component.stat: value}`` dump of every component's
        :meth:`~repro.engine.simulator.Component.metrics`.

        The full raw counter set behind :meth:`result` -- what
        ``repro run --metrics-out`` writes.  It is built from the live
        counters, so reading it mid-run changes nothing.
        """
        out: Dict[str, float] = {}
        for component in self.sim.components:
            for key, value in component.metrics().items():
                out[f"{component.name}.{key}"] = value
        return out

    def result(self) -> MachineResult:
        cfg = self.cfg
        runtime = max(core.finish_time or 0 for core in self.cores)
        runtime = max(runtime, 1)
        instructions = sum(core.inst_count for core in self.cores)
        cps = cfg.cycles_per_second
        seconds = runtime / cps

        # Aggregate stall breakdown averaged over cores.
        breakdown: Dict[str, float] = {}
        for core in self.cores:
            for k, v in core.stall_breakdown().items():
                breakdown[k] = breakdown.get(k, 0.0) + v / len(self.cores)

        scheme = self.scheme
        llc_misses = scheme.llc_misses()
        fills = scheme.page_fills()
        writebacks = scheme.page_writebacks()

        hbm_bytes = {tc.name: b for tc, b in scheme.hbm.bytes_by_class().items()}
        ddr_bytes = {tc.name: b for tc, b in scheme.ddr.bytes_by_class().items()}

        tag_latency = None
        if hasattr(scheme, "tag_mgmt_latency_mean"):
            tag_latency = scheme.tag_mgmt_latency_mean()
        buffer_ratio = None
        if hasattr(scheme, "buffer_hit_ratio"):
            buffer_ratio = scheme.buffer_hit_ratio()

        return MachineResult(
            scheme=scheme.scheme_name,
            workload=self.workload_name,
            runtime_cycles=runtime,
            instructions=instructions,
            ipc=instructions / runtime,
            per_core_ipc=[core.ipc for core in self.cores],
            stall_breakdown=breakdown,
            os_stall_ratio=breakdown.get("os", 0.0),
            dc_access_time=scheme.dc_access_time_mean(),
            dc_access_p95=scheme.dc_access_time_percentile(95),
            llc_misses=llc_misses,
            llc_mpms=llc_misses / (seconds * 1e6),
            page_fills=fills,
            page_writebacks=writebacks,
            rmhb_gbps=scheme.fill_bytes() / seconds / 1e9,
            hbm_bytes_by_class=hbm_bytes,
            ddr_bytes_by_class=ddr_bytes,
            hbm_bandwidth_gbps=scheme.hbm.bandwidth_gbps(runtime, cps),
            ddr_bandwidth_gbps=scheme.ddr.bandwidth_gbps(runtime, cps),
            hbm_row_hit_rate=scheme.hbm.row_hit_rate,
            ddr_row_hit_rate=scheme.ddr.row_hit_rate,
            tag_mgmt_latency=tag_latency,
            buffer_hit_ratio=buffer_ratio,
        )
