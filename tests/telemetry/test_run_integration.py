"""Telemetry against real runs: the acceptance properties.

The page-copy spans must reconstruct every copy the backend counted,
the document must validate against the published schema, and the
overlap fraction must separate the non-blocking design (NOMAD) from
the blocking one (TDC) on the same workload.  The document under test is
the timeline file the run streamed out of its event store.
"""

import pytest

from repro.harness import runner
from repro.harness.runner import RunConfig, clear_cache, simulate
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.timeline import load_trace, summarize_trace
from repro.telemetry.trace_schema import validate_trace

_BASE = dict(workload="mcf", num_mem_ops=3000, num_cores=2)


def _observed(scheme, tmp_path_factory):
    timeline = tmp_path_factory.mktemp(scheme) / "timeline.json"
    tel = Telemetry(TelemetryConfig(sample_every=1000,
                                    timeline_path=str(timeline)))
    result, machine = simulate(RunConfig(scheme=scheme, **_BASE), telemetry=tel)
    return result, machine, tel


@pytest.fixture(scope="module")
def nomad_run(tmp_path_factory):
    return _observed("nomad", tmp_path_factory)


@pytest.fixture(scope="module")
def tdc_run(tmp_path_factory):
    return _observed("tdc", tmp_path_factory)


def _document(tel):
    return load_trace(tel.config.timeline_path)


def test_document_validates_against_schema(nomad_run):
    _result, _machine, tel = nomad_run
    assert validate_trace(_document(tel)) == []


def test_copy_spans_reconstruct_backend_counters(nomad_run):
    result, machine, tel = nomad_run
    backend = machine.scheme.backend
    backends = getattr(backend, "backends", None) or [backend]
    fills = sum(b.stats.get("fill_commands").value for b in backends)
    wbs = sum(b.stats.get("writeback_commands").value for b in backends)
    assert fills > 0
    assert tel.tracer.span_counts.get("copy.fill") == fills
    assert tel.tracer.span_counts.get("copy.writeback", 0) == wbs
    # And the offline analysis recovers the same spans from the JSON.
    assert tel.summary["copies"]["fills"] == fills
    assert tel.summary["copies"]["writebacks"] == wbs
    assert tel.summary["spans_truncated"] == 0


def test_sampler_series_is_monotonic_and_consistent(nomad_run):
    result, _machine, tel = nomad_run
    samples = tel.sampler.samples
    assert len(samples) > 5
    times = [s["t"] for s in samples]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    assert samples[-1]["instructions"] == result.instructions
    assert all("pending_events" in s and "rob" in s for s in samples)


def test_overlap_fraction_separates_nomad_from_tdc(nomad_run, tdc_run):
    _r, _m, nomad_tel = nomad_run
    _r, _m, tdc_tel = tdc_run
    nomad_frac = nomad_tel.summary["overlap_fraction"]
    tdc_frac = tdc_tel.summary["overlap_fraction"]
    # NOMAD resumes the core at command acceptance: the copy runs
    # under execution.  TDC stalls the core for the whole copy.
    assert nomad_frac > 0.2
    assert tdc_frac < 0.05
    assert nomad_frac > tdc_frac


def test_tdc_copy_spans_match_its_data_manager(tdc_run):
    result, machine, tel = tdc_run
    counts = tel.tracer.span_counts
    assert counts.get("copy.fill") == result.page_fills
    assert counts.get("copy.writeback", 0) == result.page_writebacks


def test_summary_round_trips_through_json_document(nomad_run):
    _result, _machine, tel = nomad_run
    # Re-summarizing the written document gives the attached summary.
    assert summarize_trace(_document(tel)) == tel.summary


def test_last_window_shape(nomad_run):
    _result, _machine, tel = nomad_run
    window = tel.last_window()
    assert 0 < len(window["samples"]) <= tel.config.window
    assert window["num_samples"] == len(tel.sampler.samples)
    assert window["trace_tail"]
    assert window["span_counts"]["copy.fill"] > 0


def test_bit_identity_telemetry_on_vs_off():
    cfg = RunConfig(scheme="nomad", **_BASE)
    from repro.workloads.synthetic import clear_trace_cache

    clear_cache()
    clear_trace_cache()
    bare, _ = simulate(cfg)
    clear_cache()
    clear_trace_cache()
    observed, _ = simulate(cfg, telemetry=Telemetry(TelemetryConfig(
        sample_every=700)))
    assert observed.to_dict() == bare.to_dict()


def test_run_workload_with_telemetry_primes_cache():
    cfg = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                    num_cores=2, dc_megabytes=8)
    clear_cache()
    result = runner.run_workload(cfg, telemetry=True)
    cached, source = runner.cached_result(cfg)
    assert source == "memo"
    assert cached.to_dict() == result.to_dict()


def test_guarded_crash_bundle_carries_telemetry_window(tmp_path):
    from repro.guard import GuardConfig
    from repro.guard.bundle import load_bundle, replay_bundle

    cfg = RunConfig(scheme="nomad", **_BASE)
    guard_cfg = GuardConfig(check_interval=200, chaos="drop_event",
                            bundle_dir=str(tmp_path))
    with pytest.raises(Exception) as excinfo:
        simulate(cfg, guard=guard_cfg,
                 telemetry=Telemetry(TelemetryConfig(sample_every=500)))
    bundle_path = getattr(excinfo.value, "bundle_path", None)
    assert bundle_path
    window = load_bundle(bundle_path)["telemetry_window"]
    assert window["samples"]
    assert window["trace_tail"]
    report = replay_bundle(bundle_path)
    assert report.reproduced
    text = report.describe()
    assert "telemetry at failure:" in text
    assert "last sample:" in text
