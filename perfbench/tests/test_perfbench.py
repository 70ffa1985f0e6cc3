"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import iteration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ledger import PER_LAYER, SIMULATED_COUNTS  # noqa: E402
from repro.harness.runner import RunConfig  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark command at tiny scale, one iteration (per
    mode); returns the completed process."""
    command = DEFINITION["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_definition_matches_the_code():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DEFINITION["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DEFINITION["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = result_of(bench(workload, trace=trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else PER_LAYER
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(expected)
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_span_trace_is_readable_by_repro_timeline():
    result_of(bench("service-grid", trace=1))
    path = ROOT / ".perfbench" / "traces" / "service-grid-seed1.json"
    from repro.telemetry.trace_schema import validate_trace

    doc = json.loads(path.read_text())
    assert validate_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "b"}
    assert {"run_distributed_campaign", "client.claim", "broker.complete",
            "execute_batch", "Machine.run"} <= names
    proc = subprocess.run([sys.executable, "-m", "repro", "timeline", str(path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr


def test_simulated_counts_repeat_at_a_seed_and_change_at_another():
    def counts(seed):
        metrics = result_of(bench("paper-headline", seed=seed, trace=1))["metrics"]
        return {name: metrics[name]["value"] for name in SIMULATED_COUNTS}

    first = counts(1)
    assert first["engine.events"] > 0 and first["cpu.instructions"] > 0
    assert counts(1) == first
    other = counts(2)
    assert other != first
    assert other["cpu.mem_ops"] == first["cpu.mem_ops"]  # same trace length


def test_paper_gaps_come_from_experiment_summary():
    proc = bench("paper-headline", trace=1)
    metrics = result_of(proc)["metrics"]
    from repro.harness.experiments import experiment_summary
    from workloads import PaperHeadline

    wl = PaperHeadline(1, "tiny", ROOT / ".perfbench" / "work")
    summary = experiment_summary(wl.base, wl.presets)
    for name, value in PaperHeadline.gaps(summary).items():
        assert metrics[f"fidelity.{name}"]["value"] == value


@pytest.mark.parametrize("workload", ["seed-sweep", "paper-headline"])
def test_a_config_that_raises_is_a_failed_operation(workload):
    wl = WORKLOADS[workload](1, "tiny", ROOT / ".perfbench" / "work")
    if workload == "seed-sweep":
        wl.configs.append(RunConfig(scheme="nomad", workload="no-such-preset",
                                    num_mem_ops=200, num_cores=2,
                                    dc_megabytes=16))
        expected_failed = 1
    else:
        wl.presets.append("no-such-preset")
        expected_failed = len(wl.SCHEMES)
    verdict = iteration.iterate(wl, reference=True)["verdict"]
    assert verdict["attempted"] == wl.slots
    assert verdict["failed"] == expected_failed


def test_a_first_campaign_served_from_the_store_fails(tmp_path, monkeypatch):
    wl = WORKLOADS["service-grid"](1, "tiny", tmp_path)
    assert iteration.iterate(wl, reference=False)["verdict"]["failed"] == 0
    [used] = tmp_path.iterdir()
    # An iteration handed the store of an earlier one simulates nothing.
    monkeypatch.setattr(workloads, "iteration_dir", lambda workdir, kind: used)
    verdict = iteration.iterate(wl, reference=False)["verdict"]
    assert verdict["failed"] == len(wl.configs)


def test_an_iteration_that_dies_fails_all_its_slots(tmp_path):
    args = run.parse_args(["--workload", "seed-sweep", "--scale", "tiny"])
    runner = run.Runner(args, slots=9, env=run.confined_env(tmp_path))
    runner.request["workload"] = "no-such-workload"
    runner.spawn("iteration 1")
    runner.spawn("iteration 2")
    assert (runner.attempted, runner.failed) == (18, 18)
    assert not runner.correct


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DEFINITION["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper-headline", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
