"""Reference model of the warmup fast-forward, for tests only.

``Machine.prewarm_pages`` warms a whole build in one pass: the cores'
plans are interleaved once, every page is touched in that order, and
each scheme fills its DRAM cache state from the ordered list.  This module keeps
the page-at-a-time semantics that pass must match, written out plainly:
touch one page, then either take a free cache frame for it (evicting
from the FIFO tail once the free count reaches the eviction threshold)
or pre-install its TiD lines.  :func:`warm_state` captures everything
warming writes, so tests can compare the two paths state by state.
"""

from __future__ import annotations

from repro.vm.page_table import PTE_C, PTE_NC, frame_of


def prewarm(machine, core_pages) -> None:
    """Warm ``machine`` page by page, cores interleaved round-robin.

    Entries are bare VPNs or ``(vpn, dirty)`` pairs, as for
    ``Machine.prewarm_pages``.
    """
    longest = max((len(p) for p in core_pages), default=0)
    for i in range(longest):
        for core_id, pages in enumerate(core_pages):
            if i >= len(pages):
                continue
            entry = pages[i]
            vpn, dirty = entry if isinstance(entry, tuple) else (entry, False)
            warm_page(machine.scheme, core_id, vpn, dirty)


def warm_page(scheme, core_id: int, vpn: int, dirty: bool) -> None:
    word = scheme.page_tables[core_id].touch(vpn)
    frontend = getattr(scheme, "frontend", None)
    if frontend is not None:
        if not word & (PTE_C | PTE_NC):
            _fill_frame(frontend, frame_of(word), dirty)
    elif hasattr(scheme, "tags"):
        _install_lines(scheme, frame_of(word), dirty)


def _fill_frame(fe, pfn: int, dirty: bool) -> None:
    fq = fe.free_queue
    if fq.num_free <= fe.eviction_threshold:
        _evict(fe, fe.eviction_batch)
    if fq.num_free <= 0:
        return
    cpds = fe.cpds
    while cpds.valid[fq.head]:
        fq.head = (fq.head + 1) % fq.num_frames
        fq.head_skips += 1
    cfn = fq.head
    fq.head = (cfn + 1) % fq.num_frames
    fq.num_free -= 1
    cpds.valid[cfn] = 1
    cpds.pfn[cfn] = pfn
    cpds.dirty_in_cache[cfn] = int(dirty)
    cpds.tlb_directory[cfn] = 0
    fe.tables.cached[pfn] = 1
    for core_id, vpn in fe.tables.reverse_map(pfn):
        fe.page_tables[core_id].cache(vpn, cfn)


def _evict(fe, n: int) -> None:
    """Free up to ``n`` frames from the tail, skipping TLB-resident ones."""
    fq = fe.free_queue
    cpds = fe.cpds
    evicted = scanned = 0
    while evicted < n and fq.num_free < fq.num_frames and scanned < fq.num_frames:
        cfn = fq.tail
        fq.tail = (fq.tail + 1) % fq.num_frames
        scanned += 1
        if not cpds.valid[cfn] or cpds.tlb_directory[cfn]:
            continue
        pfn = cpds.pfn[cfn]
        fe.tables.cached[pfn] = 0
        for core_id, vpn in fe.tables.reverse_map(pfn):
            fe.page_tables[core_id].uncache(vpn, cfn, pfn)
        cpds.valid[cfn] = 0
        cpds.dirty_in_cache[cfn] = 0
        fq.num_free += 1
        evicted += 1


def _install_lines(scheme, pfn: int, dirty: bool) -> None:
    """Every 1 KB line of the page, through the tag array's own calls."""
    tags = scheme.tags
    line_size = scheme.tid_cfg.line_size
    base = pfn * 4096 // line_size
    for line_id in range(base, base + 4096 // line_size):
        if tags.lookup(line_id, touch=False) is None:
            tags.allocate(line_id)
        if dirty:
            tags.mark_dirty(line_id)


def warm_state(machine) -> dict:
    """Everything warming writes, in comparable form."""
    scheme = machine.scheme
    tables = scheme.tables
    pfns = range(len(tables.cached))
    state = {
        "ptes": [(pt.pages_touched, list(pt.entries()))
                 for pt in scheme.page_tables],
        "c_bits": list(tables.cached),
        "rmap": [tables.reverse_map(pfn) for pfn in pfns],
    }
    frontend = getattr(scheme, "frontend", None)
    if frontend is not None:
        cpds = frontend.cpds
        fq = frontend.free_queue
        state["cpds"] = [
            bytes(cpds.valid), bytes(cpds.dirty_in_cache),
            list(cpds.pfn), list(cpds.tlb_directory),
        ]
        state["free_queue"] = (fq.head, fq.tail, fq.num_free, fq.head_skips)
    if hasattr(scheme, "tags"):
        state["tid_sets"] = [list(s.items()) for s in scheme.tags._sets]
    return state
