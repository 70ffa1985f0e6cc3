"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload paper-headline --seed 1 --seconds 20 --trace 0

The workload (see ``workloads.py``) runs as a closed loop of iterations
for about ``--seconds`` seconds, and always at least once; each
iteration is a fresh process (``iteration.py``) that this one waits for.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 60, "failed": 0,
     "metrics": {"wall_s": {"value": 24.1, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`), each
the median over the run's iterations.  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics
(``ledger.PER_LAYER``), each the median over the traced iterations; the
spans of the first traced iteration are written in Perfetto trace-event
format to ``.perfbench/traces/<workload>-seed<N>.json``, which
``python -m repro timeline`` reads.  Everything the program writes stays
under ``.perfbench/``: a scratch directory that is removed at exit, and
``.perfbench/work/``, where the service-grid stores are left behind
(delete them by hand).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: (name, unit) of the end-to-end metrics.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: Set-ups done at least, so that set-up time is a median even when one
#: iteration fills the run (paper-headline: one iteration takes longer
#: than a whole run).
MIN_SETUPS = 3
#: An iteration still running after this long is killed and counted as
#: failed, so a run ends within its time limit.
ITERATION_TIMEOUT_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (>= 0); reaches the program only as "
                        "RunConfig.seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long to keep starting iterations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload, for the benchmark's "
                        "own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def confined_env(scratch: Path) -> dict:
    """The iterations' environment: every file the program writes stays
    inside the checkout."""
    env = dict(os.environ)
    env.update(TMPDIR=str(scratch), REPRO_STORE=str(scratch / "store"),
               REPRO_GUARD_BUNDLES=str(scratch / "bundles"))
    for var in ("REPRO_OBS", "REPRO_OBS_DIR", "REPRO_OBS_LEVEL"):
        env.pop(var, None)
    return env


class Runner:
    """Starts the iterations of one workload and tallies their outcome:
    attempted and failed operations and the problems behind them."""

    def __init__(self, args, slots: int, env: dict):
        self.request = {"workload": args.workload, "seed": args.seed,
                        "scale": args.scale,
                        "workdir": str(WORK_ROOT / "work")}
        self.slots = slots
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def spawn(self, label: str, **request) -> dict:
        """Run one iteration process to completion and return its
        report; one that gives none counts every slot as failed."""
        request = {**self.request, "reference": self.reference is None,
                   "setup_only": False, "trace": 0, "untraced_cpu_s": 0.0,
                   "spans_out": None, **request}
        request["spawned_at"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "iteration.py"),
                 json.dumps(request)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=ITERATION_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            failure = f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            report, failure = None, f"no result in {ITERATION_TIMEOUT_S:.0f} s"
        if request["setup_only"]:
            return report
        if report is None:
            report = {"attempted": self.slots, "failed": self.slots,
                      "problems": [f"{label} iteration failed: {failure}"],
                      "digests": [None] * self.slots}
        self.tally(report)
        if "wall_s" in report:
            print(f"{request['workload']} {label}: "
                  f"setup {report['setup_s']:.3f} s, "
                  f"wall {report['wall_s']:.3f} s, "
                  f"cpu {report['cpu_s']:.3f} s, "
                  f"failed {report['failed']}/{report['attempted']}",
                  file=sys.stderr, flush=True)
        return report

    def tally(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems.extend(report["problems"])
        digests = report["digests"]
        if self.reference is None:
            self.reference = digests
            return
        # Every iteration starts cold at the same seed, so its results
        # must repeat the first iteration's exactly.
        differ = sum(1 for a, b in zip(self.reference, digests)
                     if a is not None and b is not None and a != b)
        if differ:
            self.failed += differ
            self.problems.append(
                f"{differ} slot(s) differ from the first iteration")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _median(reports, key: str) -> float:
    return statistics.median([r[key] for r in reports if key in r] or [0.0])


def untraced_run(runner: Runner, seconds: float) -> dict:
    reports = []
    t0 = time.perf_counter()
    while not reports or time.perf_counter() - t0 < seconds:
        reports.append(runner.spawn(f"iteration {len(reports) + 1}"))
    setups = [r["setup_s"] for r in reports if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        report = runner.spawn("set-up", setup_only=True)
        if report is None:
            break
        setups.append(report["setup_s"])
    print(f"{runner.request['workload']} set-ups (s): "
          + ", ".join(f"{s:.4f}" for s in setups), file=sys.stderr, flush=True)
    gaps = reports[0].get("gaps")
    if gaps:
        print(f"{runner.request['workload']} seed {runner.request['seed']} "
              "gaps to the paper (pp): "
              + ", ".join(f"{k}={v!r}" for k, v in gaps.items()), flush=True)
    values = {
        "wall_s": _median(reports, "wall_s"),
        "cpu_s": _median(reports, "cpu_s"),
        "setup_s": statistics.median(setups or [0.0]),
        "peak_rss_mb": _median(reports, "peak_rss_mb"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced_run(runner: Runner, seconds: float) -> dict:
    from ledger import PER_LAYER

    request = runner.request
    spans_out = (WORK_ROOT / "traces"
                 / f"{request['workload']}-seed{request['seed']}.json")
    per_layer = []
    t0 = time.perf_counter()
    while not per_layer or time.perf_counter() - t0 < seconds:
        plain = runner.spawn("untraced")
        if "cpu_s" not in plain:
            break
        traced = runner.spawn(
            "traced", trace=1, untraced_cpu_s=plain["cpu_s"],
            spans_out=None if per_layer else str(spans_out))
        if "per_layer" not in traced:
            break
        if not per_layer:
            print(f"spans written to {spans_out.relative_to(ROOT)} "
                  f"({traced['spans']} spans)", flush=True)
        per_layer.append(traced["per_layer"])
    return {name: {"value": _median(per_layer, name), "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    slots = cls(args.seed, args.scale, WORK_ROOT / "work").slots
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=WORK_ROOT))
    try:
        runner = Runner(args, slots, confined_env(scratch))
        if args.trace:
            metrics = traced_run(runner, args.seconds)
        else:
            metrics = untraced_run(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in runner.problems:
        print(f"problem: {problem}", flush=True)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
