"""Regenerate tests/golden/golden_metrics.json in place.

Re-runs every recorded config on the current simulator and rewrites the
``expected`` blocks (the :class:`MachineResult`) and the ``metrics``
blocks (the full :meth:`Machine.metrics` counter set).  Only do this for
an *intentional* model change -- the golden file exists to prove that
perf work does not move fixed-seed results -- and regenerate in the
same commit as the change it blesses.

Usage:  PYTHONPATH=src python tests/golden/regen.py
"""

import json
from pathlib import Path

from repro.harness.runner import (
    RunConfig,
    clear_cache,
    clear_snapshot_cache,
    simulate,
)
from repro.workloads.synthetic import clear_trace_cache

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_metrics.json"


def main() -> None:
    with GOLDEN_PATH.open() as f:
        golden = json.load(f)
    for entry in golden["entries"]:
        clear_cache()
        clear_trace_cache()
        clear_snapshot_cache()
        cfg = RunConfig.from_dict(entry["config"])
        result, machine = simulate(cfg)
        entry["expected"] = result.to_dict()
        entry["metrics"] = machine.metrics()
        print(f"regenerated {cfg.scheme}/{cfg.workload} seed={cfg.seed}")
    with GOLDEN_PATH.open("w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['entries'])} entries)")


if __name__ == "__main__":
    main()
