"""Mid-run metric reads must not change where a run ends up.

The sampler and ``Machine.metrics()`` read component counters while the
simulation is in flight.  Components build their metrics from live
plain-int counters on every read, so a run interrupted for reads every
few thousand events finishes bit-identical to an undisturbed one.
"""

from repro.harness.runner import RunConfig, _build, clear_cache
from repro.workloads.synthetic import clear_trace_cache


def _run_machine(cfg, snapshot_every=None):
    """Drive one machine to completion, optionally reading every
    component's metrics between chunks of events; returns (result, final
    metrics)."""
    clear_cache()
    clear_trace_cache()
    machine = _build(cfg)
    for core in machine.cores:
        core.start()
    if snapshot_every is None:
        machine.sim.run()
    else:
        snapshots = 0
        while machine.sim.pending_events > 0:
            machine.sim.run(max_events=snapshot_every)
            machine.metrics()
            machine.result()
            snapshots += 1
        assert snapshots > 3, "run too small to exercise mid-run reads"
    return machine.result(), machine.metrics()


def test_chunked_snapshots_are_bit_identical_end_to_end():
    cfg = RunConfig(scheme="nomad", workload="mcf", num_mem_ops=2000,
                    num_cores=2)
    undisturbed_result, undisturbed_metrics = _run_machine(cfg)
    observed_result, observed_metrics = _run_machine(cfg, snapshot_every=2500)
    assert observed_result.to_dict() == undisturbed_result.to_dict()
    assert observed_metrics == undisturbed_metrics
