"""Acceptance: a distributed 12-config sweep with observability fully on
produces (a) a store byte-identical to a serial run, and (b) a merged,
schema-valid Perfetto service trace whose campaign -> enqueue -> claim ->
batch-run -> ingest spans share one trace id across processes."""

import threading

import pytest

from repro import obs
from repro.campaign import ResultStore, run_campaign
from repro.harness.runner import RunConfig, clear_cache
from repro.service.broker import Broker, BrokerServer
from repro.service.coordinator import run_distributed_campaign
from repro.service.runner import runner_loop
from repro.telemetry.timeline import describe_summary, summarize_trace
from repro.telemetry.trace_schema import validate_trace

BASE = RunConfig(scheme="baseline", workload="sop", num_mem_ops=300,
                 num_cores=2, dc_megabytes=8)
GRID = [BASE.with_(scheme=scheme, seed=seed)
        for scheme in ("baseline", "tdc", "nomad")
        for seed in (1, 2, 3, 4)]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def obs_dir(tmp_path):
    previous = obs.current_config()
    obs.configure(obs.ObsConfig(component="test", obs_dir=str(tmp_path / "obs")))
    yield tmp_path / "obs"
    obs.configure(previous)


def _run_distributed(tmp_path, configs):
    broker = Broker(tmp_path / "dist", lease_s=30.0)
    server = BrokerServer(broker).start()
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=runner_loop, args=(server.url,),
            kwargs=dict(runner_id=f"obs-r{i}", poll_s=0.05, stop=stop,
                        give_up_after_s=None,
                        install_signal_handlers=False),
            daemon=True,
        )
        for i in range(2)
    ]
    for t in threads:
        t.start()
    try:
        campaign = run_distributed_campaign(
            configs, server.url, store=ResultStore(tmp_path / "dist"),
            poll_s=0.05, max_wait_s=120.0, progress=None,
        )
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        server.shutdown()
        broker.journal.close()
    return campaign


def test_observed_sweep_is_bit_identical_and_traces_merge(tmp_path, obs_dir):
    campaign = _run_distributed(tmp_path, GRID)
    assert campaign.ok
    assert all(r.status in ("completed", "cached") for r in campaign.records)

    # -- byte-identity: obs stays fully on for the serial reference too.
    clear_cache()
    serial_store = ResultStore(tmp_path / "serial")
    serial = run_campaign(GRID, jobs=1, store=serial_store, progress=False)
    assert serial.ok
    dist_store = ResultStore(tmp_path / "dist")
    for cfg in GRID:
        assert dist_store.get(cfg) == serial_store.get(cfg), cfg

    # -- the merged cross-process trace is schema-valid and complete.
    doc = obs.merge_service_traces(obs_dir, out_path=obs_dir / "merged.json")
    assert validate_trace(doc) == []
    assert doc["otherData"]["spans_truncated"] == 0

    spans = [e for e in doc["traceEvents"] if e.get("ph") == "b"]
    by_name = {}
    for event in spans:
        by_name.setdefault(event["name"], []).append(event)
    for need in ("campaign", "enqueue", "claim", "batch-run", "ingest"):
        assert need in by_name, f"missing {need!r} in {sorted(by_name)}"

    # One campaign -> one trace id, shared by every span in every process.
    trace_ids = {e["args"]["trace_id"] for e in spans}
    assert trace_ids == {doc["otherData"]["trace_ids"][0]}
    assert len(by_name["campaign"]) == 1
    campaign_span = by_name["campaign"][0]

    # Parent chain: enqueue under campaign, batch-run under a claim,
    # ingest under the batch-run it reported (ids consistent across
    # processes and components).
    def ids(name):
        return {e["args"]["span_id"] for e in by_name[name]}

    for event in by_name["enqueue"]:
        assert event["args"]["parent_span_id"] == \
            campaign_span["args"]["span_id"]
    claim_ids, run_ids = ids("claim"), ids("batch-run")
    for event in by_name["batch-run"]:
        assert event["args"]["parent_span_id"] in claim_ids
    for event in by_name["ingest"]:
        assert event["args"]["parent_span_id"] in run_ids

    # Coordinator, broker, and runner tracks are distinct processes.
    components = {e["args"]["component"] for e in spans}
    assert components == {"coordinator", "broker", "runner"}
    assert len({e["pid"] for e in spans}) >= 3

    # -- timeline understands the merged service document.
    summary = summarize_trace(doc)
    assert "batch-run" in summary["service_spans"]
    assert summary["service_components"]["broker"] > 0
    assert summary["trace_ids"] == doc["otherData"]["trace_ids"]
    assert "service spans" in describe_summary(summary)

    # -- structured logs from every component landed in the obs dir.
    from repro.obs.cli import iter_log_records

    components = {r["component"] for r in iter_log_records(obs_dir)}
    assert {"broker", "runner"} <= components
