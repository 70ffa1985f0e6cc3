"""Per-component invariant checkers (the "paranoid mode" validators).

Each checker is a pure read of one component's state that returns a list
of human-readable problem strings (empty = healthy).  They are built
once per guarded run by :func:`build_checkers`, which walks the machine
with ``getattr`` discovery so the same code covers every scheme: the
PCSHR/frame/TLB checkers attach only where a back-end or front-end
exists (nomad, ideal, tdc), the MSHR/DRAM/ROB checkers attach
everywhere.

The checkers deliberately read private fields (``EventQueue._heap``/
``_live``, ``MSHRFile._entries``/``_overflow``, ``Backend._by_cfn``).
Only the owning classes and the guard depend on their layout (the
telemetry sampler and ``CacheHierarchy.guard_state`` take just the two
MSHR queue lengths), so the layout contracts those classes keep are
exactly what the guard verifies.

The only state a checker mutates is ``PCSHR.sync(now)``, which brings
the *derived* B/W vectors up to date before validating their ordering;
``sync`` is idempotent at a fixed ``now`` and the simulation itself
calls it at every observation point, so a guarded run stays
bit-identical to an unguarded one.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.common.types import SUB_BLOCKS_PER_PAGE
from repro.vm.page_table import PTE_C, frame_of

# A checker registration: (checker_name, component_name, thunk).
CheckerEntry = Tuple[str, str, Callable[[], List[str]]]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def check_event_queue(sim) -> List[str]:
    """Live-counter agreement + heap head not in the past."""
    problems: List[str] = []
    queue = sim._queue
    heap = queue._heap
    actual_live = sum(1 for entry in heap if not entry[2].cancelled)
    if actual_live != queue._live:
        problems.append(
            f"live counter says {queue._live} events but the heap holds "
            f"{actual_live} non-cancelled entries"
        )
    if heap and heap[0][0] < sim.now:
        problems.append(
            f"queue head is scheduled at t={heap[0][0]}, in the past "
            f"(now={sim.now})"
        )
    return problems


# ---------------------------------------------------------------------------
# Cores (ROB occupancy bounds)
# ---------------------------------------------------------------------------

def check_rob(core) -> List[str]:
    problems: List[str] = []
    outstanding = core.outstanding
    cfg = core.cfg
    limit = cfg.rob_size + cfg.width
    if len(outstanding) > limit:
        problems.append(
            f"{len(outstanding)} loads in flight exceeds the ROB window "
            f"({cfg.rob_size} + width {cfg.width})"
        )
    if not 0 <= core.outstanding_stores <= cfg.store_buffer:
        problems.append(
            f"outstanding_stores={core.outstanding_stores} outside "
            f"[0, {cfg.store_buffer}]"
        )
    prev = None
    for entry in outstanding:
        idx = entry[0]
        if prev is not None and idx <= prev:
            problems.append(
                f"in-flight load indices not strictly increasing "
                f"({prev} then {idx}): ROB order corrupted"
            )
            break
        prev = idx
    if core.done and outstanding:
        problems.append(
            f"core finished with {len(outstanding)} loads still in flight"
        )
    return problems


# ---------------------------------------------------------------------------
# Cache hierarchy (MSHR leak / double-free)
# ---------------------------------------------------------------------------

def check_mshrs(hierarchy, sim, age_limit: int) -> List[str]:
    problems: List[str] = []
    mshrs = hierarchy.mshrs
    entries = mshrs._entries
    if len(entries) > mshrs.capacity:
        problems.append(
            f"{len(entries)} MSHRs allocated, capacity {mshrs.capacity}"
        )
    now = sim.now
    pending = hierarchy._pending_issue
    for key, entry in entries.items():
        if entry.key != key:
            problems.append(
                f"MSHR keyed {key} tagged {entry.key}: tag corrupted"
            )
        if now - entry.issue_time > age_limit:
            problems.append(
                f"MSHR {key} outstanding {now - entry.issue_time} cycles "
                f"(> {age_limit}): leaked entry"
            )
        if not entry.waiters and key not in pending:
            problems.append(
                f"MSHR {key} has no waiters and no pending issue: "
                f"leaked or double-retired"
            )
    if mshrs._overflow and len(entries) < mshrs.capacity:
        problems.append(
            f"{len(mshrs._overflow)} misses parked in overflow while "
            f"{mshrs.capacity - len(entries)} MSHRs are free"
        )
    overflow_keys = {key for key, _t, _cb in mshrs._overflow}
    for key in pending:
        if key not in entries and key not in overflow_keys:
            problems.append(
                f"pending issue for line {key} has no MSHR and no overflow "
                f"slot: the fill would double-free"
            )
    return problems


# ---------------------------------------------------------------------------
# Back-end (PCSHR consistency)
# ---------------------------------------------------------------------------

def check_pcshrs(backend, sim) -> List[str]:
    problems: List[str] = []
    free = list(backend._free)
    active = backend._by_cfn
    if len(free) + len(active) != len(backend.pcshrs):
        problems.append(
            f"{len(free)} free + {len(active)} active != "
            f"{len(backend.pcshrs)} PCSHRs: leaked or double-freed register"
        )
    free_ids = {id(p) for p in free}
    for p in active.values():
        if id(p) in free_ids:
            problems.append(
                f"PCSHR {p.index} is both free and active (cfn={p.cfn})"
            )
    for p in free:
        if p.valid:
            problems.append(f"free PCSHR {p.index} still marked valid")
    now = sim.now
    full = (1 << SUB_BLOCKS_PER_PAGE) - 1
    for cfn, p in active.items():
        if not p.valid:
            problems.append(f"active PCSHR {p.index} (cfn={cfn}) not valid")
            continue
        if p.cfn != cfn:
            problems.append(
                f"PCSHR {p.index} filed under cfn={cfn} but tagged "
                f"cfn={p.cfn}: CFN tag mismatch"
            )
        p.sync(now)
        r = p.r_vector._bits
        b = p.b_vector._bits
        w = p.w_vector._bits
        if w & ~b:
            problems.append(
                f"PCSHR {p.index} (cfn={cfn}): W bits "
                f"{w & ~b:#x} set without B (written before buffered)"
            )
        if p.launched:
            if r != full:
                problems.append(
                    f"PCSHR {p.index} (cfn={cfn}): launched but R vector "
                    f"is {r:#x}, not all-ones"
                )
            if (b | w) & ~r:
                problems.append(
                    f"PCSHR {p.index} (cfn={cfn}): B/W bits "
                    f"{(b | w) & ~r:#x} outside R (data moved before issue)"
                )
        else:
            if r or w:
                problems.append(
                    f"PCSHR {p.index} (cfn={cfn}): not launched but "
                    f"R={r:#x} W={w:#x}"
                )
        live = [e for e in p.sub_entries if e.valid]
        for e in live:
            if not 0 <= e.sub_index < SUB_BLOCKS_PER_PAGE:
                problems.append(
                    f"PCSHR {p.index} sub-entry index {e.sub_index} "
                    f"out of range"
                )
            elif p.sub_block_in_buffer(e.sub_index, now):
                problems.append(
                    f"PCSHR {p.index} sub-entry for sub-block "
                    f"{e.sub_index} still parked after the data arrived"
                )
    return problems


# ---------------------------------------------------------------------------
# Front-end (free-queue / CPD frame accounting)
# ---------------------------------------------------------------------------

def check_frames(frontend) -> List[str]:
    problems: List[str] = []
    fq = frontend.free_queue
    cpds = frontend.cpds
    valid = cpds.valid.count(1)
    # A frame handed to a fill stays invalid until its tags commit.
    in_use = valid + frontend.filling_frames
    if fq.num_free != fq.num_frames - in_use:
        problems.append(
            f"free queue says {fq.num_free} free of {fq.num_frames} but "
            f"{valid} CPDs are valid and {frontend.filling_frames} frames "
            f"are filling (expected {fq.num_frames - in_use} free)"
        )
    if not 0 <= fq.num_free <= fq.num_frames:
        problems.append(
            f"num_free={fq.num_free} outside [0, {fq.num_frames}]"
        )
    seen_pfns = {}
    c_bits = frontend.tables.cached
    for cfn, is_valid in enumerate(cpds.valid):
        if not is_valid:
            continue
        pfn = cpds.pfn[cfn]
        if pfn in seen_pfns:
            problems.append(
                f"pfn {pfn} cached in two frames "
                f"(cfn {seen_pfns[pfn]} and {cfn})"
            )
        seen_pfns[pfn] = cfn
        if not 0 <= pfn < len(c_bits):
            problems.append(f"cfn {cfn} caches unknown pfn {pfn}")
        elif not c_bits[pfn]:
            problems.append(
                f"cfn {cfn} caches pfn {pfn} but its C bit is clear"
            )
    return problems


# ---------------------------------------------------------------------------
# TLB / PTE DC-tag coherence
# ---------------------------------------------------------------------------

def check_tlb_coherence(scheme, frontend) -> List[str]:
    """Cached PTEs resident in a TLB must agree with the CPD directory.

    Forward: a TLB-resident VPN whose PTE has the cached bit must point
    at a valid frame whose TLB-directory bit for that core is set (else
    the eviction daemon would reclaim a frame a core can still reach
    without a shootdown).  Reverse: a set directory bit must correspond
    to a translation actually resident in that core's TLB (a stale bit
    permanently pins the frame).
    """
    problems: List[str] = []
    cpds = frontend.cpds
    tlbs = getattr(scheme, "tlbs", None) or []
    per_core_cfns: List[set] = []
    for core_id, tlb in enumerate(tlbs):
        problems.extend(tlb.consistency_problems())
        page_table = scheme.page_tables[core_id]
        cfns = set()
        for vpn in tlb._l2:
            word = page_table.word(vpn)
            if not word & PTE_C:
                continue
            cfn = frame_of(word)
            if not 0 <= cfn < len(cpds):
                problems.append(
                    f"core{core_id} TLB entry vpn={vpn} cached with "
                    f"out-of-range cfn {cfn}"
                )
                continue
            cfns.add(cfn)
            if not cpds.valid[cfn]:
                problems.append(
                    f"core{core_id} TLB entry vpn={vpn} points at "
                    f"invalid frame cfn={cfn}"
                )
            elif not (cpds.tlb_directory[cfn] >> core_id) & 1:
                problems.append(
                    f"cfn {cfn} resident in core{core_id}'s TLB "
                    f"(vpn={vpn}) but its TLB-directory bit is clear: "
                    f"eviction would skip the shootdown"
                )
        per_core_cfns.append(cfns)
    for cfn, directory in enumerate(cpds.tlb_directory):
        if not directory or not cpds.valid[cfn]:
            continue
        for core_id in range(len(per_core_cfns)):
            if (directory >> core_id) & 1 and cfn not in per_core_cfns[core_id]:
                problems.append(
                    f"cfn {cfn} directory claims core{core_id}'s TLB holds "
                    f"it, but no cached translation there maps it: "
                    f"stale bit pins the frame"
                )
    return problems


# ---------------------------------------------------------------------------
# DRAM bank FSM legality
# ---------------------------------------------------------------------------

def check_banks(device) -> List[str]:
    problems: List[str] = []
    for ch in device.channels:
        if ch.bus_free_at < 0:
            problems.append(f"{ch.name}: bus_free_at={ch.bus_free_at} < 0")
        for i, bank in enumerate(ch.banks):
            if bank.open_row is None:
                if bank.ready_at or bank.activated_at:
                    problems.append(
                        f"{ch.name} bank{i}: row closed but column timing "
                        f"pending (ready_at={bank.ready_at}, "
                        f"activated_at={bank.activated_at}): column access "
                        f"on a closed row"
                    )
            elif bank.ready_at < bank.activated_at:
                problems.append(
                    f"{ch.name} bank{i}: ready_at={bank.ready_at} before "
                    f"activation at {bank.activated_at}"
                )
    return problems


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def build_checkers(machine, config) -> List[CheckerEntry]:
    """Walk the machine and register every applicable checker."""
    sim = machine.sim
    scheme = machine.scheme
    checkers: List[CheckerEntry] = [
        ("event_queue", "simulator", lambda: check_event_queue(sim)),
    ]
    for core in machine.cores:
        checkers.append(
            ("rob", core.name, lambda c=core: check_rob(c))
        )
    hierarchy = getattr(scheme, "hierarchy", None)
    if hierarchy is not None and hasattr(hierarchy, "mshrs"):
        checkers.append((
            "mshr", hierarchy.name,
            lambda: check_mshrs(hierarchy, sim, config.mshr_age_limit),
        ))
    for attr in ("hbm", "ddr"):
        device = getattr(scheme, attr, None)
        if device is not None and hasattr(device, "channels"):
            checkers.append(
                ("dram_bank", device.name, lambda d=device: check_banks(d))
            )
    frontend = getattr(scheme, "frontend", None)
    if frontend is not None:
        checkers.append(
            ("frames", frontend.name, lambda: check_frames(frontend))
        )
        checkers.append((
            "tlb_coherence", frontend.name,
            lambda: check_tlb_coherence(scheme, frontend),
        ))
    backend = getattr(scheme, "backend", None)
    if backend is not None:
        for sub in getattr(backend, "backends", None) or [backend]:
            if hasattr(sub, "_by_cfn"):
                checkers.append(
                    ("pcshr", sub.name, lambda b=sub: check_pcshrs(b, sim))
                )
    return checkers
