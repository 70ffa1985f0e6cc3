"""The opcode meter behind ``repro bench``: exact counts, gates that
catch planted regressions, the per-version report, and the state it
leaves behind.  Scenarios run at small shapes here; CI runs the full
ones with ``repro bench``."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import cli, obs
from repro.cache.sram_cache import SRAMCache
from repro.harness import bench, runner
from repro.obs import log as obs_log

SMALL_ENGINE = {"workload": "cact", "ops": 200, "cores": 1, "dc_mb": 8,
                "seed": 1}
SMALL_SWEEP = {"workload": "cact", "ops": 100, "cores": 1, "dc_mb": 8,
               "seeds": 3}
SMALL_OBS = {"workload": "sop", "ops": 200, "cores": 1, "dc_mb": 8,
             "seeds": 1}

FRESH_ENGINE_COUNT = f"""
from repro.harness import bench
bench.ENGINE = {SMALL_ENGINE!r}
bench.ENGINE_SCHEMES = ("nomad",)
bench.engine(bench.uncounted)
print(bench.engine()["engine.nomad"]["opcodes"])
"""


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(bench, "ENGINE", SMALL_ENGINE)
    monkeypatch.setattr(bench, "ENGINE_SCHEMES", ("nomad",))
    monkeypatch.setattr(bench, "SWEEP", SMALL_SWEEP)
    monkeypatch.setattr(bench, "SWEEP_SCHEMES", ("tdc", "nomad"))
    monkeypatch.setattr(bench, "OBS", SMALL_OBS)
    monkeypatch.setattr(bench, "OBS_SCHEMES", ("baseline", "nomad"))


def _fails(problems, name):
    return [p for p in problems if p.startswith(name)]


def test_engine_count_repeats_exactly_and_is_attributed(small):
    bench.engine(bench.uncounted)
    here = [bench.engine()["engine.nomad"] for _ in range(2)]
    env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parents[2]))
    fresh = [
        int(subprocess.run(
            [sys.executable, "-c", FRESH_ENGINE_COUNT], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout)
        for _ in range(2)
    ]
    assert here[0]["opcodes"] == here[1]["opcodes"] > 0
    # Not compared with the counts here: a gc callback that the test
    # process has installed (hypothesis keeps one) runs as Python code.
    assert fresh[0] == fresh[1]
    assert sum(here[0]["packages"].values()) == here[0]["opcodes"]
    assert {"cache", "dram", "engine", "core", "cpu"} <= set(
        here[0]["packages"])
    assert here[0]["per_mem_op"] == round(here[0]["opcodes"] / 200, 1)


def test_engine_gate_catches_extra_work_in_a_hot_method(small, monkeypatch):
    bench.engine(bench.uncounted)
    committed = bench.engine()
    assert bench.check(committed, bench.engine()) == []
    lookup = SRAMCache.lookup

    def slower_lookup(self, key, is_write=False):
        for _ in range(100):
            pass
        return lookup(self, key, is_write)

    monkeypatch.setattr(SRAMCache, "lookup", slower_lookup)
    problems = bench.check(committed, bench.engine())
    assert len(_fails(problems, "engine.nomad")) == 1
    assert "+" in problems[0] and "limit ±5%" in problems[0]


def test_sweep_gate_catches_disabled_forking(small):
    bench.sweep(bench.uncounted)
    committed = bench.sweep()
    # 2 schemes x 3 seeds: each scheme builds once and forks twice.
    entry = committed["sweep"]
    assert (entry["builds"], entry["forks"]) == (2, 4)
    assert bench.check(committed, bench.sweep()) == []
    previous = runner.configure_snapshots(0)
    try:
        measured = bench.sweep()
    finally:
        runner.configure_snapshots(previous)
    assert measured["sweep"]["forks"] == 0
    assert measured["sweep"]["opcodes"] > committed["sweep"]["opcodes"]
    problems = _fails(bench.check(committed, measured), "sweep")
    assert any("0 forks, committed 4" in p for p in problems)
    assert any("opcodes per memory op" in p for p in problems)


def test_obs_gate_catches_extra_work_in_the_log_write(small, monkeypatch):
    bench.obs_exchange(bench.uncounted)
    clean = bench.obs_exchange()
    assert bench.obs_ratio(clean) <= 1 + bench.OBS_OVERHEAD_FAIL_FRAC
    assert bench.check(clean, clean) == []
    write = obs_log._State.write

    def slower_write(self, record):
        for _ in range(20_000):
            pass
        write(self, record)

    monkeypatch.setattr(obs_log._State, "write", slower_write)
    measured = bench.obs_exchange()
    problems = bench.check(clean, measured)
    # Obs off never reaches the sink; obs on pays for every line.
    assert measured["obs.off"]["opcodes"] == pytest.approx(
        clean["obs.off"]["opcodes"], rel=1e-4)
    assert _fails(problems, "obs: on/off opcode ratio")


def test_check_limits():
    def entry(per_mem_op, **extra):
        return {"params": {"ops": 1}, "opcodes": per_mem_op * 10,
                "mem_ops": 10, "per_mem_op": per_mem_op, **extra}

    committed = {"engine.tdc": entry(100.0),
                 "sweep": entry(100.0, forks=4, builds=2)}
    assert bench.check(committed, {"engine.tdc": entry(104.9)}) == []
    assert bench.check(committed, {"engine.tdc": entry(95.1)}) == []
    assert _fails(bench.check(committed, {"engine.tdc": entry(105.1)}),
                  "engine.tdc")
    stale = bench.check(committed, {"engine.tdc": entry(94.9)})
    assert "--update" in stale[0]
    assert _fails(bench.check(committed, {"sweep": entry(
        100.0, forks=4, builds=3)}), "sweep: 3 builds, committed 2")
    moved = dict(entry(100.0), params={"ops": 2})
    assert _fails(bench.check(committed, {"engine.tdc": moved}), "engine.tdc")
    assert bench.check({}, {"engine.nomad": entry(1.0)}) == [
        "engine.nomad: no committed count"]

    assert bench.OBS_OVERHEAD_FAIL_FRAC == 0.05
    both = {"obs.off": entry(100.0), "obs.on": entry(105.0)}
    assert bench.check(both, both) == []
    both["obs.on"] = entry(105.1)
    assert bench.check(both, both) == [
        "obs: on/off opcode ratio 1.0510 exceeds 1.05"]


def _measured(per_mem_op):
    entry = {"params": {}, "opcodes": 10, "mem_ops": 1,
             "per_mem_op": per_mem_op, "packages": {"cache": 10}}
    return {"engine.nomad": dict(entry),
            "sweep": dict(entry, forks=4, builds=2),
            "obs.off": dict(entry), "obs.on": dict(entry)}


def test_bench_exits_2_on_a_python_version_the_report_lacks(
        tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"counts": {"2.7": _measured(10.0)}}))
    monkeypatch.setattr(bench, "REPORT", report)
    monkeypatch.setattr(bench, "measure", lambda: pytest.fail("measured"))
    assert cli.main(["bench"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"no opcode counts for Python {bench.python_version()}" in err


def test_update_rewrites_only_the_running_versions_counts(
        tmp_path, monkeypatch, capsys):
    version = bench.python_version()
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "note": "kept",
        "counts": {"2.7": _measured(10.0), version: _measured(99.0)},
    }))
    monkeypatch.setattr(bench, "REPORT", report)
    monkeypatch.setattr(bench, "measure", lambda: _measured(10.0))
    assert cli.main(["bench"]) == 1  # 10.0 against the committed 99.0
    assert cli.main(["bench", "--update"]) == 0
    written = json.loads(report.read_text())
    assert written["note"] == "kept"
    assert written["counts"]["2.7"] == _measured(10.0)
    assert written["counts"][version] == _measured(10.0)
    capsys.readouterr()
    assert cli.main(["bench", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["problems"] == []


def test_meter_restores_the_state_it_changes(small, tmp_path):
    from repro.campaign.store import ResultStore

    def noop_tracer(frame, event, arg):
        return None

    store = ResultStore(tmp_path / "store")
    config = obs.ObsConfig(component="test", obs_dir=str(tmp_path / "obs"))
    previous_store = runner.set_result_store(store)
    previous_bound = runner.configure_snapshots(5)
    previous_obs = obs.configure(config)
    threading.settrace(noop_tracer)
    sys.settrace(noop_tracer)
    try:
        bench.sweep()
        bench.obs_exchange()
        left = (sys.gettrace(), threading.gettrace(), obs.current_config(),
                runner.get_result_store(), runner.cache_stats())
    finally:
        sys.settrace(None)
        threading.settrace(None)
        obs.configure(previous_obs)
        runner.configure_snapshots(previous_bound)
        runner.set_result_store(previous_store)
    hooks, thread_hooks, obs_config, result_store, caches = left
    assert (hooks, thread_hooks) == (noop_tracer, noop_tracer)
    assert obs_config is config
    assert result_store is store and len(store) == 0
    assert caches["snapshot"]["maxsize"] == 5
    assert caches["snapshot"]["size"] == caches["memo"]["size"] == 0
