"""Machine assembly and result extraction."""

import pytest

from repro.config.system import scaled_system
from repro.system.builder import build_machine
from repro.workloads.synthetic import WorkloadSpec


def small_spec(n=800):
    return WorkloadSpec(name="unit", footprint_pages=128, mem_ratio=0.2,
                        page_select="zipf", zipf_skew=2.0, mean_run_lines=8,
                        num_mem_ops=n)


def test_run_produces_result(tiny_cfg):
    m = build_machine("baseline", cfg=tiny_cfg, spec=small_spec())
    r = m.run()
    assert r.scheme == "baseline"
    assert r.workload == "unit"
    assert r.runtime_cycles > 0
    assert r.instructions > 0
    assert 0 < r.ipc < tiny_cfg.core.width * tiny_cfg.num_cores


def test_per_core_ipc_length(tiny_cfg):
    r = build_machine("ideal", cfg=tiny_cfg, spec=small_spec()).run()
    assert len(r.per_core_ipc) == tiny_cfg.num_cores
    assert all(ipc > 0 for ipc in r.per_core_ipc)


def test_stall_breakdown_keys(tiny_cfg):
    r = build_machine("tdc", cfg=tiny_cfg, spec=small_spec()).run()
    assert set(r.stall_breakdown) == {"os", "window", "store", "dep", "tlb"}
    assert all(0 <= v <= 1 for v in r.stall_breakdown.values())


def test_speedup_over(tiny_cfg):
    base = build_machine("baseline", cfg=tiny_cfg, spec=small_spec()).run()
    ideal = build_machine("ideal", cfg=tiny_cfg, spec=small_spec()).run()
    assert ideal.speedup_over(base) == pytest.approx(ideal.ipc / base.ipc)


def test_trace_count_mismatch_rejected(tiny_cfg):
    from repro.engine.simulator import Simulator
    from repro.system.machine import Machine
    from repro.system.builder import make_scheme
    sim = Simulator()
    scheme = make_scheme("baseline", sim, tiny_cfg)
    with pytest.raises(ValueError):
        Machine(tiny_cfg, scheme, traces=[[]], workload_name="x")


def test_rmhb_zero_for_baseline(tiny_cfg):
    r = build_machine("baseline", cfg=tiny_cfg, spec=small_spec()).run()
    assert r.rmhb_gbps == 0


def test_nomad_result_has_scheme_metrics(tiny_cfg):
    # prewarm off so the zipf hot set actually generates fills.
    r = build_machine("nomad", cfg=tiny_cfg, spec=small_spec(), prewarm=False).run()
    assert r.tag_mgmt_latency is not None
    assert r.buffer_hit_ratio is not None
    assert r.page_fills > 0


@pytest.mark.parametrize("scheme", ["nomad", "tdc", "tid"])
def test_metrics_have_no_scheme_fill_counters(tiny_cfg, scheme):
    # Fills are counted where they happen (the front-end, or TiD's line
    # fills); a scheme-level page_fills/page_writebacks pair would read
    # 0 next to them.
    machine = build_machine(scheme, cfg=tiny_cfg, spec=small_spec(),
                            prewarm=False)
    result = machine.run()
    assert result.page_fills > 0
    assert not [k for k in machine.metrics()
                if k.startswith("scheme.") and k.endswith(
                    (".page_fills", ".page_writebacks"))]


def test_bytes_by_class_exposed(tiny_cfg):
    r = build_machine("nomad", cfg=tiny_cfg, spec=small_spec(), prewarm=False).run()
    assert "FILL" in r.hbm_bytes_by_class
    assert r.hbm_bandwidth_gbps > 0


def test_result_tolerates_missing_os_stall_key(tiny_cfg, monkeypatch):
    """Cores without an "os" stall bucket must not crash result().

    Custom core models (and the paper's baseline, which never suspends
    threads) may report a breakdown without the key; os_stall_ratio then
    defaults to 0 instead of raising KeyError.
    """
    m = build_machine("baseline", cfg=tiny_cfg, spec=small_spec(400))
    m.run()
    for core in m.cores:
        monkeypatch.setattr(
            core, "stall_breakdown", lambda: {"window": 0.0, "dep": 0.0}
        )
    r = m.result()
    assert r.os_stall_ratio == 0.0
    assert "os" not in r.stall_breakdown
