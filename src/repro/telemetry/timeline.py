"""Offline trace analysis: ``repro timeline`` and campaign summaries.

``summarize_trace`` reduces one trace document to the numbers the paper
argues about:

* **copy latency percentiles** -- fill/writeback span durations,
* **top stall sources** -- OS intervals aggregated by name, plus the
  run's stall breakdown from ``otherData``,
* **overlap fraction** -- the non-blocking claim as a single number:

      overlap = 1 - sum_i |fill_i ∩ U| / sum_i |fill_i|

  where ``U`` is the union of OS tag-miss stall intervals across cores.
  A blocking design (TDC) executes the whole copy inside the stall, so
  every fill is fully covered and the fraction is ~0; NOMAD's stall ends
  at command acceptance, leaving almost the whole copy overlapped with
  execution, so the fraction approaches 1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.config import CAT_OS, CAT_PAGE_COPY
from repro.telemetry.trace_schema import CAT_SERVICE


def load_trace(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# -- interval arithmetic ------------------------------------------------


def merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open intervals, sorted and coalesced."""
    out: List[Tuple[int, int]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _covered(span: Tuple[int, int], union: List[Tuple[int, int]]) -> int:
    """|span ∩ union| given a merged, sorted union."""
    total = 0
    lo, hi = span
    for start, end in union:
        if end <= lo:
            continue
        if start >= hi:
            break
        total += min(hi, end) - max(lo, start)
    return total


def overlap_fraction(
    fills: List[Tuple[int, int]], os_spans: List[Tuple[int, int]]
) -> Optional[float]:
    """1 - (fill time covered by OS stalls) / (total fill time)."""
    total = sum(end - start for start, end in fills if end > start)
    if total <= 0:
        return None
    union = merge_intervals(os_spans)
    covered = sum(_covered(span, union) for span in fills if span[1] > span[0])
    return 1.0 - covered / total


# -- the summary --------------------------------------------------------


class _SpanPairer:
    """Pairs async ``b``/``e`` events of one category by ``id``; nested
    reuse of an id closes LIFO."""

    def __init__(self):
        self._open: Dict[str, List[Tuple[int, str]]] = {}
        #: ``{name: [(start, end)]}`` in the order the spans closed.
        self.spans: Dict[str, List[Tuple[int, int]]] = {}

    def add(self, event: dict, ph: str) -> None:
        key = str(event.get("id"))
        if ph == "b":
            self._open.setdefault(key, []).append(
                (event["ts"], event.get("name", ""))
            )
        elif ph == "e":
            stack = self._open.get(key)
            if stack:
                start, name = stack.pop()
                self.spans.setdefault(name, []).append((start, event["ts"]))


def _percentiles(durations: List[int]) -> dict:
    if not durations:
        return {"count": 0}
    ordered = sorted(durations)
    n = len(ordered)

    def _pct(p: float) -> int:
        idx = min(n - 1, max(0, int(p / 100.0 * n + 0.5) - 1))
        return ordered[idx]

    return {
        "count": n,
        "mean": sum(ordered) / n,
        "p50": _pct(50),
        "p95": _pct(95),
        "p99": _pct(99),
        "max": ordered[-1],
    }


def summarize_trace(doc: dict) -> dict:
    """Reduce a trace document to the ``repro timeline`` summary.

    ``doc["traceEvents"]`` may be any iterable of event dicts -- a
    loaded file's list or :meth:`repro.telemetry.Telemetry.trace_events`
    rendered from the store -- and is consumed in one pass.
    """
    other = doc.get("otherData", {}) or {}
    samples = doc.get("samples", []) or []

    num_events = 0
    by_phase: Dict[str, int] = {}
    by_category: Dict[str, int] = {}
    copies = _SpanPairer()
    service = _SpanPairer()
    service_components: Dict[str, int] = {}
    os_stalls: Dict[str, dict] = {}
    tag_miss_spans: List[Tuple[int, int]] = []
    for event in doc.get("traceEvents", []):
        num_events += 1
        ph = event.get("ph", "?")
        by_phase[ph] = by_phase.get(ph, 0) + 1
        cat = event.get("cat")
        if not cat:
            continue
        by_category[cat] = by_category.get(cat, 0) + 1
        if cat == CAT_PAGE_COPY:
            copies.add(event, ph)
        elif cat == CAT_OS:
            if ph != "X":
                continue
            name = event.get("name", "?")
            ts, dur = event["ts"], event.get("dur", 0)
            agg = os_stalls.setdefault(name, {"count": 0, "total_cycles": 0})
            agg["count"] += 1
            agg["total_cycles"] += dur
            if name == "tag_miss":
                tag_miss_spans.append((ts, ts + dur))
        elif cat == CAT_SERVICE:
            # Merged service traces (schema v2, repro.obs): the
            # campaign -> enqueue -> claim -> batch-run -> ingest tree.
            service.add(event, ph)
            if ph == "b":
                component = (event.get("args") or {}).get("component", "?")
                service_components[component] = (
                    service_components.get(component, 0) + 1
                )
    for agg in os_stalls.values():
        agg["mean"] = agg["total_cycles"] / agg["count"]
    fill_spans = copies.spans.get("fill", [])
    wb_spans = copies.spans.get("writeback", [])

    sample_stats: dict = {"count": len(samples)}
    if samples:
        for key, fn, out_key in (
            ("active_copies", max, "peak_active_copies"),
            ("mshr_outstanding", max, "peak_mshr_outstanding"),
            ("copy_buffers_in_use", max, "peak_copy_buffers_in_use"),
            ("free_frames", min, "min_free_frames"),
        ):
            values = [s[key] for s in samples if key in s]
            if values:
                sample_stats[out_key] = fn(values)

    return {
        "scheme": other.get("scheme"),
        "workload": other.get("workload"),
        "runtime_cycles": other.get("runtime_cycles"),
        "ipc": other.get("ipc"),
        "events": num_events,
        "by_phase": by_phase,
        "by_category": by_category,
        "copies": {
            "fills": len(fill_spans),
            "writebacks": len(wb_spans),
            "fill_latency": _percentiles([e - s for s, e in fill_spans]),
            "writeback_latency": _percentiles([e - s for s, e in wb_spans]),
        },
        # Per-span-name latency percentiles, and which components
        # contributed service spans.
        "service_spans": {
            name: _percentiles([e - s for s, e in spans])
            for name, spans in sorted(service.spans.items())
        },
        "service_components": service_components,
        "trace_ids": other.get("trace_ids") or [],
        "os_stalls": os_stalls,
        "stall_breakdown": other.get("stall_breakdown"),
        "overlap_fraction": overlap_fraction(fill_spans, tag_miss_spans),
        "samples": sample_stats,
        "events_dropped": other.get("events_dropped", {}),
        "spans_truncated": other.get("spans_truncated", 0),
    }


def describe_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_trace`."""
    head = f"{summary.get('scheme')}/{summary.get('workload')}"
    if summary.get("service_spans") and not summary.get("scheme"):
        head = "service campaign trace"
    lines = [
        f"timeline: {head} -- "
        f"{summary['events']} trace events, "
        f"{summary['samples'].get('count', 0)} samples"
    ]
    if summary.get("runtime_cycles"):
        lines.append(
            f"  runtime {summary['runtime_cycles']} cycles, "
            f"ipc {summary.get('ipc', 0.0):.3f}"
        )
    copies = summary["copies"]
    fl = copies["fill_latency"]
    if fl.get("count"):
        lines.append(
            f"  page fills: {copies['fills']} "
            f"(latency p50={fl['p50']} p95={fl['p95']} p99={fl['p99']} "
            f"max={fl['max']} cycles)"
        )
    wl = copies["writeback_latency"]
    if wl.get("count"):
        lines.append(
            f"  writebacks: {copies['writebacks']} "
            f"(latency p50={wl['p50']} p95={wl['p95']})"
        )
    frac = summary.get("overlap_fraction")
    if frac is not None:
        lines.append(
            f"  overlap fraction: {frac:.3f} "
            f"(fill time overlapped with execution; blocking designs ~0)"
        )
    service = summary.get("service_spans") or {}
    if service:
        trace_ids = summary.get("trace_ids") or []
        components = summary.get("service_components") or {}
        lines.append(
            f"  service spans ({len(trace_ids)} trace id(s); "
            + ", ".join(f"{k}:{v}" for k, v in sorted(components.items()))
            + "):"
        )
        order = ["campaign", "enqueue", "claim", "batch-run", "ingest"]
        ranked = sorted(
            service.items(),
            key=lambda kv: (order.index(kv[0]) if kv[0] in order else 99,
                            kv[0]),
        )
        for name, pct in ranked:
            if not pct.get("count"):
                continue
            lines.append(
                f"    {name}: {pct['count']} x p50={pct['p50'] / 1e3:.1f}ms "
                f"p95={pct['p95'] / 1e3:.1f}ms max={pct['max'] / 1e3:.1f}ms"
            )
    stalls = summary.get("os_stalls") or {}
    if stalls:
        lines.append("  top OS stall sources:")
        ranked = sorted(
            stalls.items(), key=lambda kv: -kv[1]["total_cycles"]
        )
        for name, agg in ranked[:5]:
            lines.append(
                f"    {name}: {agg['count']} x mean {agg['mean']:.0f} "
                f"cycles = {agg['total_cycles']} total"
            )
    breakdown = summary.get("stall_breakdown")
    if breakdown:
        parts = ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(breakdown.items())
        )
        lines.append(f"  core stall breakdown: {parts}")
    peaks = {
        k: v for k, v in summary["samples"].items() if k != "count"
    }
    if peaks:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(peaks.items()))
        lines.append(f"  sampled extremes: {parts}")
    dropped = summary.get("events_dropped") or {}
    if any(dropped.values()):
        lines.append(f"  WARNING: events dropped past cap: {dropped}")
    if summary.get("spans_truncated"):
        lines.append(
            f"  note: {summary['spans_truncated']} span(s) still open at "
            f"end of run (truncated)"
        )
    return "\n".join(lines)
