"""Tracer unit tests: span pairing, caps, track metadata.

Events are read back through the store's rendering
(:meth:`Tracer.iter_events`).
"""

from repro.common.types import TrafficClass
from repro.telemetry.config import (
    ALL_CATEGORIES,
    CAT_MSHR,
    CAT_OS,
    CAT_PAGE_COPY,
    DEFAULT_CAMPAIGN_CATEGORIES,
    TelemetryConfig,
)
from repro.telemetry.tracer import PID_COPY, PID_OS, Tracer


def _events(tr):
    return list(tr.iter_events())


def test_copy_span_is_balanced_and_counted():
    tr = Tracer()
    tr.copy_begin(("be0", 3), "fill", 100, {"cfn": 7})
    tr.copy_end(("be0", 3), 900)
    events = _events(tr)
    phases = [e["ph"] for e in events]
    assert phases == ["b", "e"]
    assert events[0]["id"] == events[1]["id"]
    assert events[0]["args"] == {"cfn": 7}
    assert tr.span_counts == {"copy.fill": 1}


def test_copy_key_reuse_nests_lifo():
    tr = Tracer()
    tr.copy_begin("k", "fill", 10, {})
    tr.copy_begin("k", "writeback", 20, {})
    tr.copy_end("k", 30)  # closes the writeback (inner)
    tr.copy_end("k", 40)  # closes the fill (outer)
    events = _events(tr)
    ends = [e for e in events if e["ph"] == "e"]
    assert [e["name"] for e in ends] == ["writeback", "fill"]
    begins = {e["name"]: e["id"] for e in events if e["ph"] == "b"}
    assert [e["id"] for e in ends] == [begins["writeback"], begins["fill"]]


def test_copy_instant_attaches_to_innermost_open_span():
    tr = Tracer()
    tr.copy_begin("k", "fill", 10, {})
    tr.copy_instant("k", "launch", 15)
    events = _events(tr)
    (instant,) = [e for e in events if e["ph"] == "n"]
    assert instant["name"] == "launch"
    assert instant["id"] == events[0]["id"]


def test_orphan_instant_and_end_are_noops():
    tr = Tracer()
    tr.copy_instant("ghost", "launch", 5)
    tr.copy_end("ghost", 6)
    assert _events(tr) == []


def test_event_cap_drops_begins_but_never_unbalances():
    tr = Tracer(TelemetryConfig(max_trace_events=2))
    tr.copy_begin("a", "fill", 1, {})
    tr.copy_begin("b", "fill", 2, {})
    tr.copy_begin("c", "fill", 3, {})  # over cap: dropped
    tr.copy_end("c", 4)  # begin was dropped -> no orphan end
    tr.copy_end("a", 5)  # open span: end appended past the cap
    tr.copy_end("b", 6)
    assert tr.dropped == {CAT_PAGE_COPY: 1}
    balance = {}
    for e in _events(tr):
        balance[e["id"]] = balance.get(e["id"], 0) + (1 if e["ph"] == "b" else -1)
    assert all(v == 0 for v in balance.values())


def test_os_spans_get_stable_tids_per_label():
    tr = Tracer()
    tr.os_span("core0", "tag_miss", 100, 40)
    tr.os_span("core1", "tag_miss", 110, 25)
    tr.os_span("core0", "tag_miss", 200, 10)
    events = _events(tr)
    tids = [e["tid"] for e in events]
    assert tids[0] == tids[2] != tids[1]
    assert all(e["ph"] == "X" and e["pid"] == PID_OS for e in events)
    assert tr.span_counts["os.tag_miss"] == 3


def test_os_begin_end_pairs_into_complete_event():
    tr = Tracer()
    tr.os_begin(("daemon",), "eviction_batch", "daemon", 50)
    tr.os_end(("daemon",), 80, {"freed": 4})
    (event,) = _events(tr)
    assert event["ph"] == "X"
    assert event["ts"] == 50 and event["dur"] == 30
    assert event["args"] == {"freed": 4}
    tr.os_end(("daemon",), 99)  # already closed: no-op
    assert len(_events(tr)) == 1


def test_mshr_span_dedups_open_key():
    tr = Tracer()
    tr.mshr_begin(0xABC, 10)
    tr.mshr_begin(0xABC, 11)  # same line already open: ignored
    tr.mshr_end(0xABC, 50)
    tr.mshr_end(0xABC, 51)  # already closed: no-op
    events = _events(tr)
    assert [e["ph"] for e in events] == ["b", "e"]
    assert all(e["cat"] == CAT_MSHR for e in events)


def test_dram_spans_get_per_device_pids_and_per_bank_tids():
    tr = Tracer()
    tr.dram_span("hbm", 0, 0, 10, 30, False, TrafficClass.DEMAND)
    tr.dram_span("hbm", 1, 2, 10, 30, True, TrafficClass.FILL)
    tr.dram_span("ddr", 0, 0, 10, 30, False, TrafficClass.DEMAND)
    hbm0, hbm1, ddr0 = _events(tr)
    assert hbm0["pid"] == hbm1["pid"] != ddr0["pid"]
    assert hbm0["tid"] != hbm1["tid"]
    assert hbm0["name"] == "rd.DEMAND"
    assert hbm1["name"] == "wr.FILL"


def test_close_open_spans_flags_truncation():
    tr = Tracer()
    tr.copy_begin("k", "fill", 10, {})
    tr.mshr_begin(5, 11)
    tr.os_begin("d", "eviction_batch", "daemon", 12)
    assert tr.close_open_spans(100) == 3
    assert not tr._open_copies and not tr._open_mshrs and not tr._open_os
    events = _events(tr)
    copy_end = [e for e in events if e["ph"] == "e" and e["cat"] == CAT_PAGE_COPY]
    assert copy_end[0]["args"]["truncated"] is True
    os_x = [e for e in events if e.get("cat") == CAT_OS]
    assert os_x[0]["args"]["truncated"] is True


def test_metadata_names_every_track_in_use():
    tr = Tracer()
    tr.os_span("core0", "tag_miss", 1, 2)
    tr.dram_span("hbm", 0, 3, 4, 9, False, TrafficClass.DEMAND)
    meta = tr.metadata_events()
    assert all(e["ph"] == "M" for e in meta)
    names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert {"core0", "ch0.bank3"} <= names
    procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"cores / OS", "page copies", "hbm"} <= procs


def test_config_roundtrip_and_unknown_key_rejection():
    import pytest

    cfg = TelemetryConfig(sample_every=123, categories=("os",))
    again = TelemetryConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        TelemetryConfig.from_dict({"sample_rate": 10})
    assert set(DEFAULT_CAMPAIGN_CATEGORIES) == set(ALL_CATEGORIES) - {"dram"}
