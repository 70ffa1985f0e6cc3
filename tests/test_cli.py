"""CLI smoke tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.harness.runner import clear_cache


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cact" in out
    assert "nomad" in out


def test_run(capsys):
    rc = main(["run", "--scheme", "baseline", "--workload", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "ipc" in out


def test_run_nomad_with_pcshrs(capsys):
    rc = main(["run", "--scheme", "nomad", "--workload", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8",
               "--pcshrs", "4"])
    assert rc == 0
    assert "tag management latency" in capsys.readouterr().out


def test_compare(capsys):
    rc = main(["compare", "--workload", "sop", "--ops", "200",
               "--cores", "2", "--dc-mb", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ("baseline", "tid", "tdc", "nomad", "ideal"):
        assert scheme in out


def test_invalid_scheme_rejected(capsys):
    rc = main(["run", "--scheme", "bogus", "--workload", "sop"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "repro list" in err


def test_invalid_workload_rejected(capsys):
    rc = main(["run", "--scheme", "nomad", "--workload", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope" in err and "repro list" in err


def test_compare_rejects_unknown_workload(capsys):
    rc = main(["compare", "--workload", "nope"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_run_rejects_more_cores_than_the_tlb_directory_holds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scheme", "nomad", "--workload", "sop",
              "--cores", "65"])
    assert exc.value.code == 2
    assert "at most 64 cores" in capsys.readouterr().err


SMALL = ["--ops", "200", "--cores", "2", "--dc-mb", "8"]
RUN = ["run", "--scheme", "nomad", "--workload", "sop", *SMALL]
SWEEP = ["sweep", "--schemes", "nomad", "--workloads", "sop", *SMALL,
         "--no-store", "--no-progress"]


@pytest.mark.parametrize("argv, flag, problem", [
    (RUN + ["--cores", "0"], "--cores", "must be at least 1, got 0"),
    (RUN + ["--dc-mb", "0"], "--dc-mb", "must be at least 1, got 0"),
    (RUN + ["--ops", "-5"], "--ops", "must be at least 1, got -5"),
    (RUN + ["--seed", "-1"], "--seed", "must be at least 0, got -1"),
    (RUN + ["--pcshrs", "0"], "--pcshrs", "must be at least 1, got 0"),
    (RUN + ["--ops", "many"], "--ops", "expected an integer, got 'many'"),
    (SWEEP + ["--seeds", ","], "--seeds", "expected a comma list"),
    (SWEEP + ["--seeds", "1,-1"], "--seeds", "must be at least 0, got -1"),
    (SWEEP + ["--pcshrs", "4,0"], "--pcshrs", "must be at least 1, got 0"),
    (SWEEP + ["--pcshrs", ""], "--pcshrs", "expected a comma list"),
    (["chaos", "--dc-mb", "0"], "--dc-mb", "must be at least 1, got 0"),
    (["chaos", "--seeds", ","], "--seeds", "expected a comma list"),
])
def test_impossible_sizes_exit_2_at_parse_time(capsys, argv, flag, problem):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert f"error: argument {flag}: {problem}" in last, err


def test_run_guarded(capsys):
    rc = main(["run", "--scheme", "nomad", "--workload", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8", "--guard"])
    assert rc == 0
    assert "nomad" in capsys.readouterr().out


def test_replay_missing_bundle(capsys):
    rc = main(["replay", "/nonexistent/bundle"])
    assert rc == 2
    assert "cannot read bundle" in capsys.readouterr().err


def test_run_json(capsys):
    rc = main(["run", "--scheme", "baseline", "--workload", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["scheme"] == "baseline"
    assert payload["result"]["workload"] == "sop"
    assert payload["result"]["ipc"] > 0


def test_compare_json(capsys):
    rc = main(["compare", "--workload", "sop", "--ops", "200",
               "--cores", "2", "--dc-mb", "8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["scheme"] for r in payload["rows"]} == \
        {"baseline", "tid", "tdc", "nomad", "ideal"}
    (base_row,) = [r for r in payload["rows"] if r["scheme"] == "baseline"]
    assert base_row["ipc_rel"] == pytest.approx(1.0)


def test_sweep_text_and_store_round_trip(tmp_path, capsys):
    args = ["sweep", "--schemes", "baseline,nomad", "--workloads", "sop",
            "--seeds", "1,2", "--ops", "200", "--cores", "2", "--dc-mb", "8",
            "--store", str(tmp_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "4 runs" in out and "4 simulated" in out
    # Second invocation: everything comes from the disk store.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "4 cached" in out and "0 failed" in out


def test_sweep_json(tmp_path, capsys):
    rc = main(["sweep", "--schemes", "baseline", "--workloads", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8",
               "--store", str(tmp_path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 1
    assert payload["runs"][0]["status"] in ("completed", "cached")
    assert payload["runs"][0]["result"]["ipc"] > 0


def test_sweep_no_store(capsys):
    rc = main(["sweep", "--schemes", "baseline", "--workloads", "sop",
               "--ops", "200", "--cores", "2", "--dc-mb", "8", "--no-store"])
    assert rc == 0
    assert "result store" not in capsys.readouterr().out


def test_run_timeline_and_metrics_out(tmp_path, capsys):
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    rc = main(["run", "--scheme", "nomad", "--workload", "sop",
               "--ops", "300", "--cores", "2", "--dc-mb", "8",
               "--timeline", str(trace), "--sample-every", "1000",
               "--metrics-out", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "timeline written to" in out and "metrics written to" in out

    doc = json.loads(trace.read_text())
    from repro.telemetry.trace_schema import validate_trace

    assert validate_trace(doc) == []
    assert doc["otherData"]["scheme"] == "nomad"
    assert doc["samples"]

    flat = json.loads(metrics.read_text())
    assert flat  # every component's StatGroup, flattened
    assert any(key.endswith(".p95") for key in flat)
    assert all(not isinstance(v, (dict, list)) for v in flat.values())


def test_run_json_carries_telemetry_summary(tmp_path, capsys):
    trace = tmp_path / "t.json"
    rc = main(["run", "--scheme", "nomad", "--workload", "sop",
               "--ops", "300", "--cores", "2", "--dc-mb", "8",
               "--timeline", str(trace), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["telemetry"]["copies"]["fills"] >= 0
    assert payload["telemetry"]["events"] > 0


def test_timeline_subcommand_text_and_json(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["run", "--scheme", "nomad", "--workload", "sop",
                 "--ops", "300", "--cores", "2", "--dc-mb", "8",
                 "--timeline", str(trace)]) == 0
    capsys.readouterr()

    assert main(["timeline", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "timeline: nomad/sop" in out

    assert main(["timeline", str(trace), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scheme"] == "nomad"
    assert summary["events"] > 0


def test_timeline_subcommand_rejects_missing_and_invalid(tmp_path, capsys):
    rc = main(["timeline", str(tmp_path / "nope.json")])
    assert rc == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": "not-a-list"}))
    rc = main(["timeline", str(bad)])
    assert rc == 2
    assert "traceEvents" in capsys.readouterr().err


def test_sweep_telemetry_adds_overlap_column(capsys):
    rc = main(["sweep", "--schemes", "tdc,nomad", "--workloads", "sop",
               "--ops", "300", "--cores", "2", "--dc-mb", "8",
               "--no-store", "--telemetry", "--no-progress"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overlap" in out


def test_sweep_rejects_unknown_names(capsys):
    rc = main(["sweep", "--schemes", "warpdrive", "--workloads", "sop",
               "--no-store"])
    assert rc == 2
    assert "warpdrive" in capsys.readouterr().err


# -- service subcommands ----------------------------------------------------

def _seed_store(tmp_path):
    assert main(["sweep", "--schemes", "baseline,nomad", "--workloads",
                 "sop", "--seeds", "1,2", "--ops", "200", "--cores", "2",
                 "--dc-mb", "8", "--store", str(tmp_path),
                 "--no-progress"]) == 0


def test_results_empty_store(tmp_path, capsys):
    assert main(["results", "--store", str(tmp_path)]) == 0
    assert "no matching rows" in capsys.readouterr().out


def test_results_lists_and_filters_swept_runs(tmp_path, capsys):
    _seed_store(tmp_path)
    capsys.readouterr()
    assert main(["results", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4 rows" in out and "nomad" in out and "baseline" in out

    assert main(["results", "--store", str(tmp_path),
                 "--where", "scheme=nomad", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["results", "--store", str(tmp_path),
                 "--where", "scheme=nomad", "--where", "seed=1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    row = payload["rows"][0]
    assert row["scheme"] == "nomad" and row["seed"] == 1
    assert row["status"] == "ok" and row["ipc"] > 0


def test_results_json_matches_directory_store(tmp_path, capsys):
    from repro.campaign import ResultStore

    _seed_store(tmp_path)
    capsys.readouterr()
    assert main(["results", "--store", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    store = ResultStore(tmp_path)
    disk = dict(store.iter_entries())
    assert {r["key"] for r in payload["rows"]} == set(disk)
    for row in payload["rows"]:
        assert row["metrics"] == disk[row["key"]]["result"]


def test_results_quarantined_view(tmp_path, capsys):
    from repro.campaign import ResultStore
    from repro.harness.runner import RunConfig

    store = ResultStore(tmp_path)
    cfg = RunConfig(scheme="baseline", workload="sop", num_mem_ops=200,
                    num_cores=2, dc_megabytes=8)
    store.put_failure(cfg, {"failure_kind": "crash", "error": "boom"})
    assert main(["results", "--store", str(tmp_path),
                 "--quarantined"]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out and "crash" in out


def test_results_rejects_bad_where(tmp_path, capsys):
    assert main(["results", "--store", str(tmp_path),
                 "--where", "bogus=1"]) == 2
    assert "unknown --where column" in capsys.readouterr().err


def test_sweep_distributed_requires_store(capsys):
    rc = main(["sweep", "--schemes", "baseline", "--workloads", "sop",
               "--ops", "200", "--no-store", "--distributed"])
    assert rc == 2
    assert "--no-store" in capsys.readouterr().err


def test_sweep_distributed_local_service_round_trip(tmp_path, capsys):
    args = ["sweep", "--schemes", "baseline", "--workloads", "sop",
            "--seeds", "1,2", "--ops", "200", "--cores", "2", "--dc-mb", "8",
            "--store", str(tmp_path), "--distributed", "--runners", "2",
            "--no-progress"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out and "2 simulated" in out
    assert "campaign id:" in out
    cid = out.rsplit("campaign id: ", 1)[1].split()[0]
    # Resume of a finished campaign: all served from the store, and the
    # campaign id round-trips from the printed hint.
    from repro.harness.runner import clear_cache
    clear_cache()
    assert main(["sweep", "--distributed", "--resume", cid,
                 "--store", str(tmp_path), "--no-progress"]) == 0
    out = capsys.readouterr().out
    assert "0 simulated, 2 cached" in out


def test_results_since_filters_recent_rows(tmp_path, capsys):
    _seed_store(tmp_path)
    capsys.readouterr()
    # Everything was ingested moments ago: a generous window keeps all
    # rows, and it composes with --where.
    assert main(["results", "--store", str(tmp_path),
                 "--since", "15m", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["results", "--store", str(tmp_path), "--since", "1h",
                 "--where", "scheme=nomad", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    # Age two rows in the index; a narrow window must exclude them.
    from repro.service.index import ResultIndex

    index = ResultIndex(tmp_path)
    index._conn.execute(
        "UPDATE results SET updated_at = updated_at - 86400 "
        "WHERE scheme = 'baseline'"
    )
    index._conn.commit()
    index.close()
    assert main(["results", "--store", str(tmp_path),
                 "--since", "1h", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_results_since_rejects_bad_duration(tmp_path, capsys):
    assert main(["results", "--store", str(tmp_path),
                 "--since", "fortnight"]) == 2
    assert "NUMBER[s|m|h|d]" in capsys.readouterr().err
