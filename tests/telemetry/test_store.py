"""The columnar event store and the streaming timeline writer.

The store must render exactly what the dict-per-event recorder it
replaced did: ``timeline_pins.json`` holds the sha256 of the canonical
JSON (``sort_keys=True``) of timelines that recorder wrote, and the
crash-window labels it reported, for the small runs below.  A change to
the simulator that moves these runs on purpose has to re-pin them.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.harness.runner import RunConfig, clear_cache, simulate
from repro.telemetry import Telemetry, TelemetryConfig, tracer as tracer_mod
from repro.telemetry.config import ALL_CATEGORIES, CAT_DRAM, CAT_MSHR
from repro.telemetry.timeline import load_trace
from repro.telemetry.tracer import Tracer, write_atomically
from repro.workloads.synthetic import clear_trace_cache

PINS = json.loads(
    (Path(__file__).with_name("timeline_pins.json")).read_text()
)

_BASE = dict(workload="mcf", num_mem_ops=1200, num_cores=2, dc_megabytes=16)

#: name -> (scheme, TelemetryConfig overrides); every category armed.
_TIMELINES = {
    "nomad": ("nomad", {}),
    "tdc": ("tdc", {}),
    "tid": ("tid", {}),
    # Low enough that every category drops events.
    "nomad-capped": ("nomad", {"max_trace_events": 3000}),
}


def _run(scheme, **telemetry):
    clear_cache()
    clear_trace_cache()
    tel = Telemetry(TelemetryConfig(sample_every=400, **telemetry))
    simulate(RunConfig(scheme=scheme, **_BASE), telemetry=tel)
    return tel


@pytest.mark.parametrize("name", sorted(_TIMELINES))
def test_timeline_matches_pinned_document(name, tmp_path):
    scheme, overrides = _TIMELINES[name]
    path = tmp_path / "timeline.json"
    tel = _run(scheme, timeline_path=str(path), **overrides)
    doc = load_trace(path)
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == PINS["timeline_sha256"][name]
    assert doc["otherData"]["schema_version"] == 1
    assert doc["otherData"]["categories"] == list(ALL_CATEGORIES)
    if name == "nomad-capped":
        assert set(doc["otherData"]["events_dropped"]) == set(ALL_CATEGORIES)
    # The store renders the same events as dicts and as JSON text.
    rendered = list(tel.trace_events())
    assert rendered == doc["traceEvents"]
    assert [json.loads(t) for t in tel.tracer.iter_json()] == list(
        tel.tracer.iter_events()
    )


@pytest.mark.parametrize("name, overrides", [
    ("window", {"categories": ("page_copy", "os", "mshr", "dram")}),
    ("window-capped", {"max_trace_events": 2000}),
])
def test_last_window_matches_pinned_labels(name, overrides):
    window = _run("nomad", **overrides).last_window()
    pinned = PINS["last_window"][name]
    assert window["trace_tail"] == pinned["trace_tail"]
    assert list(window["span_counts"].items()) == list(
        pinned["span_counts"].items()
    )
    assert window["num_trace_events"] == pinned["num_trace_events"]


def test_recorder_memory_per_hot_event():
    cfg = RunConfig(scheme="nomad", **_BASE)
    clear_cache()
    clear_trace_cache()
    tel = Telemetry(TelemetryConfig(sample_every=0,
                                    categories=(CAT_MSHR, CAT_DRAM)))
    tracemalloc.start()
    try:
        simulate(cfg, telemetry=tel)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, tracer_mod.__file__)]
    )
    recorder_bytes = sum(stat.size for stat in held.statistics("filename"))
    events = tel.tracer.num_events
    assert events > 10_000
    assert recorder_bytes / events <= 64


def test_tail_renders_the_last_records():
    tr = Tracer()
    tr.mshr_begin(7, 10)
    tr.os_span("core0", "tag_miss", 11, 4)
    tr.mshr_end(7, 20)
    assert [e["ph"] for e in tr.tail(2)] == ["X", "e"]
    assert len(list(tr.tail(0))) == tr.num_events == 3


def _chunks_then_fail():
    yield '{"traceEvents":['
    raise RuntimeError("writer died")


def test_interrupted_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "timeline.json"
    path.write_text("previous")
    with pytest.raises(RuntimeError, match="writer died"):
        write_atomically(path, _chunks_then_fail())
    assert path.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["timeline.json"]


def test_interrupted_finalize_leaves_no_timeline(tmp_path, monkeypatch):
    path = tmp_path / "out" / "timeline.json"
    original = Tracer.iter_json

    def fail_after_first(self):
        yield next(original(self))
        raise RuntimeError("writer died")

    monkeypatch.setattr(Tracer, "iter_json", fail_after_first)
    monkeypatch.setattr(tracer_mod, "CHUNK_EVENTS", 1)
    with pytest.raises(RuntimeError, match="writer died"):
        _run("nomad", timeline_path=str(path))
    assert list(path.parent.iterdir()) == []
