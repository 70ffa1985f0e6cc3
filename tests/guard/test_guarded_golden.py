"""Paranoid mode over the pinned golden configs.

Two properties at once: (a) every golden config completes under the full
checker sweep with zero violations -- the simulator's own bookkeeping
passes its declared invariants on real runs, not just on toy setups --
and (b) the guarded dispatch loop is bit-identical to the fast loops,
so turning the guard on can never change what is being validated.
"""

import json
from pathlib import Path

import pytest

from repro.guard import Guard, GuardConfig
from repro.harness.runner import RunConfig, clear_cache, simulate
from repro.workloads.synthetic import clear_trace_cache

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "golden_metrics.json"
)

with GOLDEN_PATH.open() as f:
    _GOLDEN = json.load(f)

_IDS = [
    f"{e['config']['scheme']}-{e['config']['workload']}-s{e['config']['seed']}"
    for e in _GOLDEN["entries"]
]

# Short interval so small runs get many sweeps, not one.
_GUARD = GuardConfig(check_interval=500, write_bundle=False)


@pytest.mark.parametrize("entry", _GOLDEN["entries"], ids=_IDS)
def test_guarded_golden_bit_identical_zero_violations(entry):
    clear_cache()
    clear_trace_cache()
    cfg = RunConfig.from_dict(entry["config"])
    guard = Guard(_GUARD)
    result, machine = simulate(cfg, guard=guard)
    assert guard.violations == 0
    assert guard.checks_run > 0, "guard must actually have swept"
    assert result.to_dict() == entry["expected"]
    assert machine.metrics() == entry["metrics"]
