"""The telemetry runtime: install hooks, collect, finalize, summarize.

A :class:`Telemetry` object is attached to one run via
``Machine.run(telemetry=...)`` (or ``repro run --timeline``).  It owns a
:class:`~repro.telemetry.sampler.Sampler` and a
:class:`~repro.telemetry.tracer.Tracer` and wires the tracer into the
components whose categories are armed, using the same duck-typed
one-branch pattern as ``repro.guard``: each hooked class carries a
``_tel = None`` class attribute; installation sets an instance
attribute, uninstallation deletes it, and an un-observed run pays one
always-false branch per hook site.

Strictly read-only by construction: hooks append to the tracer's event
store and never schedule, mutate, or reorder simulation state, so an
observed run is bit-identical to a bare one (pinned by the telemetry
golden tests).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional, Union

from repro.telemetry.config import (
    CAT_COUNTER,
    CAT_DRAM,
    CAT_MSHR,
    CAT_OS,
    CAT_PAGE_COPY,
    TelemetryConfig,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.tracer import SCHEMA_VERSION, Tracer, write_document


class Telemetry:
    """Observability state of one run."""

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig()
        self.sampler = Sampler(self.config)
        self.tracer = Tracer(self.config) if self.config.categories else None
        self.machine = None
        self.summary: Optional[dict] = None
        self._hooked: list = []

    # -- lifecycle -----------------------------------------------------

    def install(self, machine) -> None:
        """Bind to a machine: arm tracer hooks, start the sampler."""
        self.machine = machine
        scheme = machine.scheme
        tracer = self.tracer
        if tracer is not None:
            cats = set(self.config.categories)
            targets = []
            if CAT_PAGE_COPY in cats:
                backend = getattr(scheme, "backend", None)
                if backend is not None:
                    targets.extend(getattr(backend, "backends", None)
                                   or [backend])
                data_manager = getattr(scheme, "data_manager", None)
                if data_manager is not None:
                    targets.append(data_manager)
            if CAT_OS in cats:
                frontend = getattr(scheme, "frontend", None)
                if frontend is not None:
                    targets.append(frontend)
            if CAT_MSHR in cats:
                hierarchy = getattr(scheme, "hierarchy", None)
                if hierarchy is not None:
                    targets.append(hierarchy)
            if CAT_DRAM in cats:
                for label in ("hbm", "ddr"):
                    device = getattr(scheme, label, None)
                    if device is not None:
                        targets.append(device)
            for target in targets:
                target._tel = tracer
                self._hooked.append(target)
        self.sampler.start(machine)

    def uninstall(self) -> None:
        """Drop every instance hook (back to the class-level ``None``)."""
        for target in self._hooked:
            try:
                del target._tel
            except AttributeError:
                pass
        self._hooked = []

    # -- crash support -------------------------------------------------

    def last_window(self) -> dict:
        """What the machine was doing just now (for crash bundles)."""
        window = self.config.window
        tracer = self.tracer
        tail = []
        if tracer is not None:
            for e in tracer.tail(window):
                label = f"t={e.get('ts')} {e.get('ph')} {e.get('cat')}.{e.get('name')}"
                tail.append(label)
        return {
            "samples": [dict(s) for s in self.sampler.samples[-window:]],
            "num_samples": len(self.sampler.samples),
            "trace_tail": tail,
            "num_trace_events": tracer.num_events if tracer is not None else 0,
            "span_counts": tracer.span_counts if tracer is not None else {},
        }

    # -- finalize ------------------------------------------------------

    def finalize(self, machine, result) -> dict:
        """Close spans, stream the trace document to ``timeline_path``
        (when set), and compute the summary from the store.  Returns the
        summary dict."""
        from repro.telemetry import timeline

        self.sampler.final_sample()
        cps = machine.cfg.cycles_per_second
        tracer = self.tracer
        truncated = 0
        if tracer is not None:
            truncated = tracer.close_open_spans(machine.sim.now)
            if CAT_COUNTER in self.config.categories:
                for name, ts, values in self.sampler.counter_series(cps):
                    tracer.counter(name, ts, values)
        other = self._other_data(machine, result, truncated)
        samples = self.sampler.samples
        if self.config.timeline_path:
            write_document(self.config.timeline_path, tracer, other, samples)
        self.summary = timeline.summarize_trace({
            "traceEvents": self.trace_events(),
            "otherData": other,
            "samples": samples,
        })
        return self.summary

    def trace_events(self) -> Iterator[dict]:
        """The document's ``traceEvents`` rendered from the store: track
        metadata, then every recorded event in emission order."""
        tracer = self.tracer
        if tracer is None:
            return iter(())
        return chain(tracer.metadata_events(), tracer.iter_events())

    def _other_data(self, machine, result, truncated: int) -> dict:
        tracer = self.tracer
        other = {
            "schema_version": SCHEMA_VERSION,
            "tool": "repro.telemetry",
            "scheme": machine.scheme.scheme_name,
            "workload": machine.workload_name,
            "cycles_per_second": machine.cfg.cycles_per_second,
            "sample_every": self.config.sample_every,
            "num_samples": len(self.sampler.samples),
            "samples_dropped": self.sampler.dropped,
            "events_dropped": dict(tracer.dropped) if tracer else {},
            "spans_truncated": truncated,
            "categories": list(self.config.categories),
        }
        if result is not None:
            other["runtime_cycles"] = result.runtime_cycles
            other["ipc"] = result.ipc
            other["stall_breakdown"] = dict(result.stall_breakdown)
            other["page_fills"] = result.page_fills
            other["page_writebacks"] = result.page_writebacks
        return other


def as_telemetry(
    value: Union[None, bool, dict, TelemetryConfig, Telemetry]
) -> Optional[Telemetry]:
    """Normalize the ``telemetry=`` argument accepted across the stack.

    ``None``/``False`` -> off; ``True`` -> default config; a
    :class:`TelemetryConfig` (or its dict form) -> fresh
    :class:`Telemetry`; a :class:`Telemetry` passes through.
    """
    if value is None or value is False:
        return None
    if isinstance(value, Telemetry):
        return value
    if isinstance(value, TelemetryConfig):
        return Telemetry(value)
    if isinstance(value, dict):
        return Telemetry(TelemetryConfig.from_dict(value))
    if value is True:
        return Telemetry(TelemetryConfig())
    raise TypeError(
        f"telemetry must be None, bool, dict, TelemetryConfig, or "
        f"Telemetry, not {type(value).__name__}"
    )
