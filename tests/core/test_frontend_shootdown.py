"""Forced-shootdown fallback accounting."""

from repro.config.schemes import NomadConfig
from repro.system.builder import build_machine
from repro.workloads.presets import workload


def test_normal_runs_avoid_shootdowns(tiny_cfg):
    r = build_machine(
        "nomad", cfg=tiny_cfg,
        spec=workload("cact", dc_pages=tiny_cfg.dc_pages,
                      num_cores=tiny_cfg.num_cores, num_mem_ops=1500),
    )
    result = r.run()
    # Proactive eviction + TLB-directory skips keep the fallback idle.
    assert r.scheme.frontend.metrics()["forced_shootdowns"] == 0
    # And the eviction machinery did real work.
    assert r.scheme.frontend.metrics()["evictions"] > 0
