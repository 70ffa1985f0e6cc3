"""Fault injection: deliberately corrupt state to prove the guard fires.

Each injection takes a live :class:`~repro.system.machine.Machine`,
corrupts one component the way a real bookkeeping bug would, and returns
the name of the checker expected to catch it -- or ``None`` when the
machine is not currently in an injectable state (e.g. no page copy in
flight), in which case the guard retries at the next event.

This module is the guard layer's own self-test harness (test-only: it is
imported lazily, never on the simulation path).  Injections are wired
into a run through ``GuardConfig(chaos=..., chaos_at_event=...)``, which
makes the corruption part of the run's configuration -- a chaos crash
bundle therefore replays deterministically like any other.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Optional

from repro.common.types import SUB_BLOCKS_PER_PAGE
from repro.vm.page_table import PTE_C, frame_of

INJECTIONS: Dict[str, Callable] = {}


def register(name: str):
    def _wrap(fn):
        INJECTIONS[name] = fn
        return fn

    return _wrap


def apply_injection(name: str, machine) -> Optional[str]:
    """Run one injection; returns the expected checker name or None."""
    try:
        fn = INJECTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos injection {name!r}; "
            f"known: {', '.join(sorted(INJECTIONS))}"
        ) from None
    return fn(machine)


def _active_backends(machine):
    backend = getattr(machine.scheme, "backend", None)
    if backend is None:
        return []
    return list(getattr(backend, "backends", None) or [backend])


# ---------------------------------------------------------------------------
# Injections
# ---------------------------------------------------------------------------

@register("flip_pcshr_ready_bit")
def flip_pcshr_ready_bit(machine) -> Optional[str]:
    """Set a W (written) bit for a sub-block that never reached the
    buffer: breaks the W⊆B ordering the data-hit path relies on."""
    for backend in _active_backends(machine):
        for pcshr in backend._by_cfn.values():
            pcshr.sync(machine.sim.now)
            missing = ~pcshr.b_vector._bits & ((1 << SUB_BLOCKS_PER_PAGE) - 1)
            if missing:
                sub = (missing & -missing).bit_length() - 1
                pcshr.w_vector.set(sub)
                return "pcshr"
    return None


@register("leak_mshr")
def leak_mshr(machine) -> Optional[str]:
    """Plant an ancient waiter-less MSHR entry that nothing will retire."""
    hierarchy = getattr(machine.scheme, "hierarchy", None)
    if hierarchy is None or not hasattr(hierarchy, "mshrs"):
        return None
    from repro.cache.mshr import MSHREntry

    key = (1 << 62) + 17  # outside any real line-key range
    hierarchy.mshrs._entries[key] = MSHREntry(key, -(10 ** 9), [])
    return "mshr"


@register("double_free_mshr")
def double_free_mshr(machine) -> Optional[str]:
    """Retire an MSHR out from under its pending issue (double free)."""
    hierarchy = getattr(machine.scheme, "hierarchy", None)
    if hierarchy is None or not hasattr(hierarchy, "mshrs"):
        return None
    entries = hierarchy.mshrs._entries
    for key in hierarchy._pending_issue:
        if key in entries:
            del entries[key]
            return "mshr"
    return None


@register("drop_event")
def drop_event(machine) -> Optional[str]:
    """Remove a scheduled event without cancelling it: the live counter
    and the heap disagree, and whoever scheduled it waits forever."""
    queue = machine.sim._queue
    if not queue._heap:
        return None
    heapq.heappop(queue._heap)
    return "event_queue"


@register("desync_live_counter")
def desync_live_counter(machine) -> Optional[str]:
    """Bump the O(1) live counter past the real heap population."""
    machine.sim._queue._live += 1
    return "event_queue"


@register("corrupt_frame_counter")
def corrupt_frame_counter(machine) -> Optional[str]:
    """Make the free queue believe in one more free frame than exists."""
    frontend = getattr(machine.scheme, "frontend", None)
    if frontend is None:
        return None
    frontend.free_queue.num_free += 1
    return "frames"


@register("tlb_desync")
def tlb_desync(machine) -> Optional[str]:
    """Clear a frame's TLB-directory bits while a TLB still maps it."""
    frontend = getattr(machine.scheme, "frontend", None)
    tlbs = getattr(machine.scheme, "tlbs", None)
    if frontend is None or not tlbs:
        return None
    cpds = frontend.cpds
    for tlb, page_table in zip(tlbs, machine.scheme.page_tables):
        for vpn in tlb._l2:
            word = page_table.word(vpn)
            cfn = frame_of(word)
            if word & PTE_C and 0 <= cfn < len(cpds):
                if cpds.valid[cfn] and cpds.tlb_directory[cfn]:
                    cpds.tlb_directory[cfn] = 0
                    return "tlb_coherence"
    return None


@register("break_tlb_inclusion")
def break_tlb_inclusion(machine) -> Optional[str]:
    """Drop an L2 TLB entry whose translation is still in the L1."""
    tlbs = getattr(machine.scheme, "tlbs", None)
    if not tlbs:
        return None
    for tlb in tlbs:
        for vpn in tlb._l1:
            if vpn in tlb._l2:
                del tlb._l2[vpn]
                return "tlb_coherence"
    return None


@register("close_dram_row")
def close_dram_row(machine) -> Optional[str]:
    """Force a bank's row closed while its column timing is pending."""
    for attr in ("hbm", "ddr"):
        device = getattr(machine.scheme, attr, None)
        if device is None:
            continue
        for ch in device.channels:
            for bank in ch.banks:
                if bank.open_row is not None and bank.ready_at:
                    bank.open_row = None
                    return "dram_bank"
    return None


@register("corrupt_rob")
def corrupt_rob(machine) -> Optional[str]:
    """Drive a core's store-buffer occupancy negative."""
    for core in machine.cores:
        if not core.done:
            core.outstanding_stores = -1
            return "rob"
    return None


@register("inject_deadlock")
def inject_deadlock(machine) -> Optional[str]:
    """Schedule a self-perpetuating zero-delay event: the clock stops
    advancing and only the watchdog can end the run."""
    sim = machine.sim

    def _spin() -> None:
        sim.schedule(0, _spin)

    sim.schedule(0, _spin)
    return "forward_progress"
