"""Observed runs are bit-identical to bare runs on every golden config.

The tracer/sampler hooks are read-only by construction; this pins that
contract against the same 12 golden results the unguarded and guarded
suites pin, so any hook that perturbs simulation state fails loudly.
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import RunConfig, clear_cache, simulate
from repro.telemetry import Telemetry, TelemetryConfig
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

# Off-cadence sampling period so sampler ticks interleave arbitrarily
# with simulation events rather than landing on round numbers.
_TEL = TelemetryConfig(sample_every=777)


@pytest.mark.parametrize("entry", _GOLDEN["entries"], ids=_IDS)
def test_telemetry_golden_bit_identical(entry):
    clear_cache()
    clear_trace_cache()
    cfg = RunConfig.from_dict(entry["config"])
    tel = Telemetry(_TEL)
    result, machine = simulate(cfg, telemetry=tel)
    assert result.to_dict() == entry["expected"]
    assert machine.metrics() == entry["metrics"]
    # The observation itself must have happened.
    assert tel.sampler.samples
    assert tel.summary is not None
