"""The one-pass warmup against the page-at-a-time reference.

``Machine.prewarm_pages`` must leave exactly the state that warming one
page at a time (``tests/system/warm_oracle.py``) leaves: every PTE in
insertion order, the C bits, the reverse map, every CPD, the free
queue's pointers and counters, and the TiD sets in LRU order.
"""

import pytest

from repro.config.system import scaled_system
from repro.system.builder import build_machine
from repro.workloads.presets import warm_plan, workload

from tests.system import warm_oracle

SCHEMES = ("tid", "tdc", "nomad", "ideal", "unthrottled")
CORES = 2
DC_MB = 8


def _unwarmed(scheme):
    cfg = scaled_system(num_cores=CORES, dc_megabytes=DC_MB)
    return build_machine(scheme, workload_name="cact", cfg=cfg,
                         num_mem_ops=100, prewarm=False)


def _plan(kind):
    cfg = scaled_system(num_cores=CORES, dc_megabytes=DC_MB)
    share = cfg.dc_pages // CORES
    if kind == "small":
        # Uneven lengths, bare VPNs, a repeated page (dirty the second
        # time) and a VPN both cores map: no frame runs out.
        return [[(5, False), 9, (5, True), (1 << 30, True)],
                [9, (7, True)]]
    spec = workload("cact", dc_pages=cfg.dc_pages, num_cores=CORES)
    if kind == "build":
        # The builder's plan: fills the whole DC, so the front-end's warm
        # eviction fires once the free count reaches its threshold.
        return [warm_plan(spec, share)] * CORES
    # Twice the DC: TiD's sets overflow and evict in LRU order too.
    return [warm_plan(spec, 2 * share)] * CORES


@pytest.mark.parametrize("kind", ["small", "build", "overflow"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_prewarm_matches_page_at_a_time_reference(scheme, kind):
    plan = _plan(kind)
    bulk = _unwarmed(scheme)
    bulk.prewarm_pages(plan)
    reference = _unwarmed(scheme)
    warm_oracle.prewarm(reference, plan)
    state = warm_oracle.warm_state(bulk)
    assert state == warm_oracle.warm_state(reference)
    assert any(pte.cached for pt in state["ptes"] for _, pte in pt) == (
        scheme != "tid"
    )


def test_build_plan_triggers_warm_eviction():
    """The "build" case above really exercises the eviction path."""
    machine = _unwarmed("nomad")
    machine.prewarm_pages(_plan("build"))
    fq = machine.scheme.frontend.free_queue
    assert fq.tail > 0
    assert fq.num_free == machine.scheme.frontend.eviction_threshold
