"""Layer attribution for the traced benchmark run.

Two instruments, both installed by the benchmark around one timed
region and removed afterwards (nothing under ``src/`` is modified):

* **Spans.**  The public entry points of each layer are wrapped, and
  every call inside the timed region records a span in memory: name,
  layer, phase, start, end, parent span, and the calling thread's CPU
  time.  Entry points on the per-access hot path (the SRAM hierarchy,
  the DRAM-cache schemes, the DRAM devices) run millions of times per
  workload, so their wrappers only count calls and sum inclusive time.
* **Package self time.**  A sampling thread wakes about once a
  millisecond, reads every thread's CPU clock (``/proc`` schedstat,
  nanoseconds) and current stack, and charges the CPU each thread used
  since the previous sample to the innermost ``repro`` package on that
  thread's stack, in the thread's current phase.  Time in built-ins, the
  standard library and numpy so goes to the ``repro`` package that
  called them, and event-loop work the engine dispatches (fill callbacks
  and the like) goes to the package that owns the callback.  Frames of
  the benchmark itself (its wrappers included) are charged to ``bench``;
  threads with no ``repro`` frame on their stack to ``unattributed``.

A thread's phase is the phase of its innermost open span: ``build``
(trace materialization, machine build, prewarm, snapshot dump and
restore), ``run`` (``Machine.run``), ``summary`` (trace analysis) or
``other`` (campaign orchestration, the service, the result store).

:meth:`LayerTracer.document` renders the spans as a Perfetto trace-event
document in the repository's schema-version-2 service format, so
``repro.telemetry.trace_schema.validate_trace`` and ``repro timeline``
read it; the package self times ride along in ``otherData``.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

PHASES = ("build", "run", "summary", "other")
#: Seconds between two samples of package self time.
PERIOD_S = 0.001


class Span:
    __slots__ = ("span_id", "parent_id", "name", "layer", "phase", "thread",
                 "t0", "t1", "cpu0", "cpu1", "error")

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


def thread_cpu(native_id: int) -> Optional[float]:
    """CPU seconds used so far by the thread with kernel id *native_id*,
    or None once it has exited."""
    try:
        with open(f"/proc/self/task/{native_id}/schedstat", "rb") as fh:
            return int(fh.read().split()[0]) * 1e-9
    except (OSError, ValueError, IndexError):
        return None


class LayerTracer:
    """Spans + sampled package self time for one traced region."""

    def __init__(self, repro_dir: str, bench_dir: str):
        self._repro_prefix = os.path.join(os.path.realpath(repro_dir), "")
        self._bench_prefix = os.path.join(os.path.realpath(bench_dir), "")
        self.spans: List[Span] = []
        #: Hot entry points: name -> [calls, inclusive seconds].
        self.hot: Dict[str, list] = {}
        #: Sampled CPU seconds per (phase, package).
        self.self_cpu: Dict[Tuple[str, str], float] = {}
        self.samples = 0
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._phase: Dict[int, str] = {}
        self._pkg_of_file: Dict[str, str] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        self._switch_interval = None
        self.t_origin = time.perf_counter()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, phase: Optional[str], fn: Callable,
             *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span while the tracer is
        active; a span with no ``phase`` takes its parent's."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span()
        span.span_id = next(self._ids)
        span.parent_id = parent.span_id if parent is not None else 0
        span.name = name
        span.layer = layer
        span.phase = phase or (parent.phase if parent is not None else "other")
        span.thread = threading.get_ident()
        span.error = ""
        stack.append(span)
        self._phase[span.thread] = span.phase
        span.cpu0 = time.thread_time()
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.t1 = time.perf_counter()
            span.cpu1 = time.thread_time()
            stack.pop()
            self._phase[span.thread] = stack[-1].phase if stack else "other"
            if self.active:  # calls still in flight at stop() are dropped
                self.spans.append(span)

    def _span_wrapper(self, fn: Callable, name: str, layer: str,
                      phase: Optional[str], after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, layer, phase, fn, *args, **kwargs)
            if after is not None and tracer.active:
                after(args, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn: Callable, name: str) -> Callable:
        agg = self.hot.setdefault(name, [0, 0.0])
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            agg[1] += perf() - t0
            agg[0] += 1
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str,
              phase: Optional[str] = None, hot: bool = False,
              after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a function, method or classmethod).

        ``after(args, result)`` runs after each successful call inside
        the timed region, outside the span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = (self._hot_wrapper(fn, name) if hot
                   else self._span_wrapper(fn, name, layer, phase, after))
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- sampling ------------------------------------------------------

    def _package(self, frame) -> str:
        cache = self._pkg_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            pkg = cache.get(filename)
            if pkg is None:
                pkg = cache[filename] = self._classify(filename)
            if pkg:
                return pkg
            frame = frame.f_back
        return "unattributed"

    def _classify(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if path.startswith(self._bench_prefix):
            return "bench"
        if path.startswith(self._repro_prefix):
            head = path[len(self._repro_prefix):].split(os.sep, 1)[0]
            return head[:-3] if head.endswith(".py") else head
        return ""

    def _sample(self, last: Dict[int, float], me: int) -> None:
        native = {t.ident: t.native_id for t in threading.enumerate()}
        for ident, frame in sys._current_frames().items():
            tid = native.get(ident)
            if ident == me or tid is None:
                continue
            cpu = thread_cpu(tid)
            if cpu is None:
                continue
            # A thread first seen here started inside the region.
            delta = cpu - last.get(tid, 0.0)
            last[tid] = cpu
            if delta <= 0.0:
                continue
            key = (self._phase.get(ident, "other"), self._package(frame))
            self.self_cpu[key] = self.self_cpu.get(key, 0.0) + delta
        self.samples += 1

    def _sample_loop(self, last: Dict[int, float]) -> None:
        me = threading.get_ident()
        while not self._stop.wait(PERIOD_S):
            self._sample(last, me)
        self._sample(last, me)

    def start(self) -> None:
        """Start recording; CPU used before this call is not charged."""
        last = {}
        for t in threading.enumerate():
            cpu = thread_cpu(t.native_id) if t.native_id is not None else None
            if cpu is not None:
                last[t.native_id] = cpu
        # The sampler needs the GIL to run; a short switch interval makes
        # the busy thread hand it over about once per sampling period.
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(PERIOD_S)
        self._stop.clear()
        self.active = True
        self._sampler = threading.Thread(
            target=self._sample_loop, args=(last,), name="perfbench-sampler",
            daemon=True,
        )
        self._sampler.start()

    def stop(self) -> None:
        self.active = False
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None
        if self._switch_interval is not None:
            sys.setswitchinterval(self._switch_interval)
            self._switch_interval = None

    # -- derived figures -----------------------------------------------

    def sampled_cpu(self) -> float:
        return sum(self.self_cpu.values())

    def phase_cpu(self, phase: str) -> float:
        return sum(v for (p, _), v in self.self_cpu.items() if p == phase)

    def package_cpu(self, package: str, phase: Optional[str] = None) -> float:
        return sum(v for (p, pkg), v in self.self_cpu.items()
                   if pkg == package and (phase is None or p == phase))

    def spans_named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def self_wait(self, span: Span) -> float:
        """Wall time of *span* outside its child spans that it spent off
        the CPU (sleeping, polling, blocked on I/O)."""
        children = [s for s in self.spans if s.parent_id == span.span_id]
        self_wall = span.wall - sum(c.wall for c in children)
        self_cpu = span.cpu - sum(c.cpu for c in children)
        return max(0.0, self_wall - self_cpu)

    # -- output --------------------------------------------------------

    def document(self, other: Optional[dict] = None) -> dict:
        """The spans as a schema-version-2 Perfetto trace-event document."""
        pid = os.getpid()
        trace_id = uuid.uuid4().hex[:16]
        threads: Dict[int, int] = {}
        events: List[dict] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        origin = self.t_origin
        for span in sorted(self.spans, key=lambda s: (s.t0, s.span_id)):
            sid = f"{span.span_id:08x}"
            tid = threads.setdefault(span.thread, len(threads))
            args = {"trace_id": trace_id, "span_id": sid,
                    "component": span.layer, "phase": span.phase,
                    "cpu_us": round(span.cpu * 1e6, 1)}
            if span.parent_id:
                args["parent_span_id"] = f"{span.parent_id:08x}"
            common = {"cat": "service", "id": sid, "name": span.name,
                      "pid": pid, "tid": tid}
            events.append(dict(common, ph="b",
                               ts=round((span.t0 - origin) * 1e6, 3),
                               args=args))
            end_args = {"error": span.error} if span.error else {}
            events.append(dict(common, ph="e",
                               ts=round((span.t1 - origin) * 1e6, 3),
                               args=end_args))
        layers: Dict[str, Dict[str, float]] = {}
        for (phase, pkg), seconds in sorted(self.self_cpu.items()):
            layers.setdefault(phase, {})[pkg] = seconds
        data = {
            "schema_version": 2,
            "kind": "service",
            "generator": "perfbench",
            "trace_ids": [trace_id],
            "spans_truncated": 0,
            "self_cpu_s": layers,
            "samples": self.samples,
            "hot_calls": {k: {"calls": v[0], "inclusive_s": v[1]}
                          for k, v in sorted(self.hot.items())},
        }
        data.update(other or {})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": data}
