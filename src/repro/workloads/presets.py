"""The 15 Table I benchmarks as synthetic workload presets.

Footprints are expressed relative to each core's *share* of the DRAM
cache (``dc_pages / num_cores``), because each core runs a private
single-threaded program (as in the paper's rate-mode methodology) and
the fully-associative DC is shared.  Ratios above 1 put a core's working
set beyond its share -- sustained fill traffic (Excess/Tight); ratios
below 1 with reuse settle into the cache (Few).

The parameters were tuned so the measured RMHB ordering and LLC-MPMS
structure reproduce Table I's classes; see EXPERIMENTS.md for the
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.synthetic import (
    SyntheticWorkload,
    WorkloadSpec,
    _SCATTER_PRIME,
)

WORKLOAD_CLASSES = ("excess", "tight", "loose", "few")


@dataclass(frozen=True)
class PresetEntry:
    """A Table I row: relative footprint + access behaviour."""

    name: str
    klass: str
    footprint_ratio: float
    mem_ratio: float
    page_select: str
    mean_run_lines: int
    write_frac: float = 0.25
    dep_frac: float = 0.1
    zipf_skew: float = 2.0
    bursty: bool = False
    cold_frac: float = 0.0
    reuse_frac: float = 0.0


# Parameters calibrated (tools/calibrate.py) so measured RMHB under the
# ideal configuration reproduces Table I's class ordering against the
# scaled machine's 25.6 GB/s off-package peak; see EXPERIMENTS.md.
_PRESET_LIST: List[PresetEntry] = [
    # -- Excess: RMHB above the off-package bandwidth ------------------
    PresetEntry("cact", "excess", 3.0, 0.45, "stream", 56, write_frac=0.10,
                dep_frac=0.08, reuse_frac=0.50),
    PresetEntry("sssp", "excess", 1.1, 0.25, "zipf", 16, zipf_skew=1.2,
                dep_frac=0.35, cold_frac=0.42),
    PresetEntry("bwav", "excess", 2.2, 0.30, "stream", 56, dep_frac=0.10,
                reuse_frac=0.45),
    # -- Tight: RMHB near the off-package bandwidth --------------------
    PresetEntry("les", "tight", 1.9, 0.12, "stream", 64, bursty=True,
                dep_frac=0.10, reuse_frac=0.38),
    PresetEntry("libq", "tight", 1.7, 0.055, "stream", 48, bursty=True,
                dep_frac=0.22, reuse_frac=0.35),
    PresetEntry("gems", "tight", 1.7, 0.064, "stream", 56, bursty=True,
                dep_frac=0.24, reuse_frac=0.28),
    PresetEntry("bfs", "tight", 0.9, 0.11, "zipf", 16, zipf_skew=1.5,
                dep_frac=0.25, cold_frac=0.31),
    # -- Loose: roughly half the off-package bandwidth -----------------
    PresetEntry("lbm", "loose", 1.4, 0.018, "stream", 64, write_frac=0.45,
                dep_frac=0.20, reuse_frac=0.33),
    PresetEntry("mcf", "loose", 0.9, 0.30, "zipf", 3, zipf_skew=2.0,
                dep_frac=0.45, cold_frac=0.06),
    PresetEntry("cc", "loose", 0.9, 0.14, "zipf", 16, zipf_skew=2.0,
                dep_frac=0.20, cold_frac=0.13),
    PresetEntry("bc", "loose", 0.9, 0.30, "zipf", 4, zipf_skew=2.0,
                dep_frac=0.25, cold_frac=0.042),
    # -- Few: negligible miss-handling bandwidth -----------------------
    PresetEntry("ast", "few", 0.9, 0.06, "zipf", 24, zipf_skew=1.5,
                dep_frac=0.30, cold_frac=0.11),
    PresetEntry("pr", "few", 0.95, 0.35, "zipf", 1, zipf_skew=3.0,
                dep_frac=0.15, cold_frac=0.003),
    PresetEntry("sop", "few", 0.8, 0.18, "zipf", 8, zipf_skew=2.0,
                dep_frac=0.20, cold_frac=0.008),
    PresetEntry("tc", "few", 0.9, 0.12, "zipf", 2, zipf_skew=3.0,
                dep_frac=0.30, cold_frac=0.004),
]

PRESETS: Dict[str, PresetEntry] = {p.name: p for p in _PRESET_LIST}
CLASS_OF: Dict[str, str] = {p.name: p.klass for p in _PRESET_LIST}


def workloads_in_class(klass: str) -> List[str]:
    if klass not in WORKLOAD_CLASSES:
        raise ValueError(f"unknown class {klass!r}; one of {WORKLOAD_CLASSES}")
    return [p.name for p in _PRESET_LIST if p.klass == klass]


def workload(
    name: str,
    dc_pages: int = 16384,
    num_cores: int = 4,
    num_mem_ops: int = 50_000,
) -> WorkloadSpec:
    """Instantiate a Table I preset for a concrete machine size."""
    entry = PRESETS.get(name)
    if entry is None:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(PRESETS)}")
    share = max(1, dc_pages // num_cores)
    footprint = max(16, int(entry.footprint_ratio * share))
    return WorkloadSpec(
        name=entry.name,
        footprint_pages=footprint,
        mem_ratio=entry.mem_ratio,
        page_select=entry.page_select,
        zipf_skew=entry.zipf_skew,
        mean_run_lines=entry.mean_run_lines,
        write_frac=entry.write_frac,
        dep_frac=entry.dep_frac,
        bursty=entry.bursty,
        cold_frac=entry.cold_frac,
        reuse_frac=entry.reuse_frac,
        num_mem_ops=num_mem_ops,
    )


# Pages in this range are "dead" filler: they occupy FIFO frames during
# warmup (standing in for long-gone history) and are evicted first,
# putting the cache-frame queue into steady state from cycle zero.
_DEAD_PAGE_BASE = 1 << 24

# The warmup fills each core's whole DC share; the zero-cost warm
# eviction path then keeps the free count at the eviction threshold, so
# the timed region starts from the daemon's steady operating point.
_WARM_FILL_FRACTION = 1.0


def warm_plan(spec: WorkloadSpec, dc_share_pages: int) -> List[tuple]:
    """The paper's fast-forward warmup as ``(vpn, dirty)`` pairs.

    Fills the core's whole DC share: streaming workloads get the pages
    just behind the stream start (their live reuse window plus FIFO
    history); reuse workloads get their hot set plus dead filler pages.
    Dirty bits are assigned deterministically at the workload's store
    ratio so steady-state eviction produces writeback traffic.
    """
    target = max(1, int(dc_share_pages * _WARM_FILL_FRACTION))

    def _dirty(vpn: int) -> bool:
        return (vpn * _SCATTER_PRIME) % 1000 < int(spec.write_frac * 1000)

    if spec.page_select == "stream":
        count = min(target, spec.footprint_pages)
        pages = [
            (spec.footprint_pages - count + i) % spec.footprint_pages
            for i in range(count)
        ]
    else:
        hot = list(dict.fromkeys(warm_pages(spec, dc_share_pages)))[:target]
        # Dead filler first, then hot pages coldest-to-hottest: the
        # hottest pages end up youngest in the FIFO queue (as steady
        # state would leave them, since they are refilled most often).
        pages = [_DEAD_PAGE_BASE + i for i in range(target - len(hot))]
        pages += list(reversed(hot))
    return [(vpn, _dirty(vpn)) for vpn in pages]


def warm_pages(spec: WorkloadSpec, dc_share_pages: int) -> List[int]:
    """Pages worth preloading into the DC before the timed region.

    Mirrors the paper's fast-forward warmup: workloads whose hot set
    fits their DC share start warm; streaming workloads start cold
    because cold *is* their steady state.
    """
    if spec.page_select == "stream":
        return []
    limit = min(spec.footprint_pages, dc_share_pages)
    if spec.page_select == "uniform":
        if spec.footprint_pages <= dc_share_pages:
            return list(range(spec.footprint_pages))
        return []
    # zipf: the hottest ranks, mapped through the scatter bijection.
    return [
        int((rank * _SCATTER_PRIME) % spec.footprint_pages)
        for rank in range(limit)
    ][:limit]
