"""One iteration of a benchmark workload, in a fresh interpreter.

``run.py`` starts every iteration as its own process::

    python3 perfbench/iteration.py '<request as JSON>'

so that each timed region starts the way a fresh campaign does, and no
iteration inherits the heap of the one before it: in one process,
back-to-back seed-sweep iterations slowed by about a third from the
first to the sixth.  The iteration sets the workload up, runs the timed
region (traced when the request asks), checks the outputs, tears down,
and prints one JSON line with its measurements.

Request keys: ``workload``, ``seed``, ``scale``, ``workdir``,
``spawned_at`` (the parent's ``time.perf_counter()`` just before it
started this process; the clock is system-wide on Linux), ``reference``
(run the costlier reference checks), ``setup_only``, ``trace``,
``untraced_cpu_s`` (of the paired untraced iteration, for the tracing
overhead) and ``spans_out`` (where a traced iteration writes its spans,
or null).
"""

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _int_counts(stats: dict) -> dict:
    return {section: {k: v for k, v in counts.items() if isinstance(v, int)}
            for section, counts in stats.items()}


def _digest(result):
    if result is None:
        return None
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def iterate(wl, reference: bool, tracer=None, counts=None) -> dict:
    """Set up, run the timed region (traced when a tracer is given),
    check the outputs and tear down; a timed region that raises counts
    every slot as failed."""
    from ledger import instrument
    from repro.harness.runner import cache_stats

    state = wl.prepare()
    try:
        before = _int_counts(cache_stats())
        if tracer is not None:
            instrument(tracer, counts)
            tracer.start()
        t_timed = time.perf_counter()
        c0 = time.process_time()
        try:
            out, error = wl.timed(state, tracer), ""
        except Exception as exc:  # counted as failed slots; the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t_timed
        cpu_s = time.process_time() - c0
        if tracer is not None:
            tracer.stop()
            tracer.unpatch()
        after = _int_counts(cache_stats())
        caches = {section: {k: v - before[section].get(k, 0)
                            for k, v in values.items()}
                  for section, values in after.items()}
        if out is None:
            verdict = {"attempted": wl.slots, "failed": wl.slots,
                       "problems": [f"{wl.name} raised: {error}"],
                       "results": [None] * wl.slots, "counts": {}}
        else:
            verdict = wl.check(state, out, reference)
        thread = state.get("thread")
    finally:
        wl.teardown(state)
    gaps = wl.gaps(out["summary"]) if (
        hasattr(wl, "gaps") and out is not None and out.get("summary")) else None
    return {"t_timed": t_timed, "wall_s": wall_s, "cpu_s": cpu_s,
            "verdict": verdict, "caches": caches, "gaps": gaps,
            "runner_thread": thread.ident if thread is not None else 0}


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    wl = WORKLOADS[request["workload"]](
        request["seed"], request["scale"], Path(request["workdir"]))
    if request["setup_only"]:
        state = wl.prepare()
        setup_s = time.perf_counter() - request["spawned_at"]
        wl.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer, counts = None, Counter()
    if request["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer(str(SRC / "repro"), str(BENCH_DIR))
    it = iterate(wl, request["reference"], tracer, counts)
    verdict = it["verdict"]
    report = {
        "setup_s": it["t_timed"] - request["spawned_at"],
        "wall_s": it["wall_s"],
        "cpu_s": it["cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "problems": verdict["problems"],
        "digests": [_digest(r) for r in verdict["results"]],
        "gaps": it["gaps"],
    }
    if tracer is not None:
        from ledger import per_layer_metrics

        for key, value in verdict["counts"].items():
            counts[key] += value
        report["per_layer"] = per_layer_metrics(
            tracer, counts, it["caches"], cpu_s=it["cpu_s"],
            wall_s=it["wall_s"], untraced_cpu_s=request["untraced_cpu_s"],
            runner_thread=it["runner_thread"], gaps=it["gaps"])
        if request["spans_out"]:
            from repro.telemetry.trace_schema import validate_trace

            doc = tracer.document(other={
                "workload": wl.name, "seed": wl.seed,
                "per_layer": report["per_layer"],
            })
            report["problems"] += [f"span trace: {p}" for p in validate_trace(doc)]
            path = Path(request["spans_out"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
