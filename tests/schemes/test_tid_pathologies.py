"""TiD pathologies the paper calls out (Section IV-B4)."""

import pytest

from repro.config.schemes import TiDConfig
from repro.engine.simulator import Simulator
from repro.schemes.tid import TiDScheme
from repro.system.builder import build_machine
from repro.workloads.presets import workload


def test_conflict_misses_despite_spare_capacity(tiny_cfg):
    """tc's pathology: set conflicts fill the DC with traffic even when
    the total working set would fit a fully-associative cache."""
    sim = Simulator()
    s = TiDScheme(sim, tiny_cfg)
    sets = s.tags.num_sets
    ways = s.tid_cfg.ways
    # ways+1 lines aliasing one set, accessed round-robin: every access
    # conflicts forever.
    for round_ in range(3):
        for i in range(ways + 1):
            from repro.common.types import MemAccess
            addr = (i * sets) * 1024
            acc = MemAccess(addr=addr, is_write=False, core_id=0, paddr=addr)
            s.dc_access(acc, lambda t: None)
            sim.run()
    assert s.metrics()["line_fills"] > ways + 1  # refetched lines
    assert s.dc_hit_rate() < 0.5


def test_metadata_share_grows_with_hit_traffic(tiny_cfg):
    """High-MPMS workloads burn HBM bandwidth on tags (pr's pathology)."""
    r = build_machine(
        "tid", cfg=tiny_cfg,
        spec=workload("pr", dc_pages=tiny_cfg.dc_pages,
                      num_cores=tiny_cfg.num_cores, num_mem_ops=1200),
    ).run()
    meta = r.hbm_bytes_by_class.get("METADATA", 0)
    demand = r.hbm_bytes_by_class.get("DEMAND", 1)
    assert meta > 0.5 * demand  # at least one tag burst per data burst


def test_sub_blocks_per_line_consistency():
    cfg = TiDConfig(line_size=512)
    assert cfg.sub_blocks_per_line == 8
