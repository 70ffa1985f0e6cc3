"""Direct unit tests of the invariant checkers and guard plumbing."""

import pytest

from repro.guard import Guard, GuardConfig, as_guard
from repro.guard.checkers import (
    build_checkers,
    check_banks,
    check_event_queue,
    check_frames,
    check_rob,
)
from repro.guard.core import queue_head
from repro.harness.runner import RunConfig, _build, simulate


def _machine(scheme="nomad"):
    return _build(RunConfig(scheme=scheme, workload="cact",
                            num_mem_ops=400, num_cores=2, dc_megabytes=16))


# -- individual checkers ---------------------------------------------------

def test_healthy_machine_has_no_problems():
    machine = _machine()
    guard = Guard(GuardConfig())
    guard.install(machine)
    guard.check_now()  # must not raise on a freshly built machine
    assert guard.checks_run == 1
    assert guard.violations == 0


def test_event_queue_checker_catches_counter_drift(sim):
    sim.schedule(5, lambda: None)
    assert check_event_queue(sim) == []
    sim._queue._live += 1
    problems = check_event_queue(sim)
    assert problems and "live counter" in problems[0]


def test_queue_head_skips_cancelled_head_in_time_order(sim):
    """A cancelled heap head must not expose heap-list order: the next
    live event after cancelling t=1 is t=2, not t=5 at index 1."""

    def a():
        pass

    def b():
        pass

    def c():
        pass

    first = sim.schedule(1, a)
    sim.schedule(5, b)
    sim.schedule(2, c)
    first.cancel()
    pending = sim.pending_events
    assert queue_head(sim) == (2, 2, c.__qualname__)
    assert sim.pending_events == pending  # read-only: nothing popped
    sim.run()
    assert queue_head(sim) is None


def test_rob_checker_catches_negative_stores():
    machine = _machine()
    core = machine.cores[0]
    assert check_rob(core) == []
    core.outstanding_stores = -1
    problems = check_rob(core)
    assert problems and "outstanding_stores" in problems[0]


def test_frame_checker_catches_counter_drift():
    machine = _machine()
    frontend = machine.scheme.frontend
    assert check_frames(frontend) == []
    frontend.free_queue.num_free -= 1
    problems = check_frames(frontend)
    assert problems and "free queue" in problems[0]


def test_frame_checker_counts_frames_mid_fill():
    # A frame handed to a tag-miss fill stays invalid until its tags
    # commit; a sweep landing in that window (the 61st check here,
    # before the fix) must not read it as a leaked frame.
    guard = Guard(GuardConfig(check_interval=3, write_bundle=False))
    simulate(RunConfig(scheme="nomad", workload="mcf", num_mem_ops=1500,
                       num_cores=2, dc_megabytes=16, seed=2), guard=guard)
    assert guard.violations == 0
    assert guard.checks_run > 2000


def _valid_cfns(frontend):
    cpds = frontend.cpds
    return [cfn for cfn in range(len(cpds)) if cpds[cfn].valid]


def test_frame_checker_catches_pfn_in_two_frames():
    frontend = _machine().scheme.frontend
    a, b = _valid_cfns(frontend)[:2]
    pfn = frontend.cpds[a].pfn
    frontend.cpds[b].pfn = pfn
    assert check_frames(frontend) == [
        f"pfn {pfn} cached in two frames (cfn {a} and {b})"
    ]


def test_frame_checker_catches_unknown_pfn():
    frontend = _machine().scheme.frontend
    cfn = _valid_cfns(frontend)[0]
    pfn = frontend.tables.frames_allocated
    frontend.cpds[cfn].pfn = pfn
    assert check_frames(frontend) == [f"cfn {cfn} caches unknown pfn {pfn}"]


def test_frame_checker_catches_clear_c_bit():
    frontend = _machine().scheme.frontend
    cfn = _valid_cfns(frontend)[-1]
    pfn = frontend.cpds[cfn].pfn
    frontend.tables.cached[pfn] = 0
    assert check_frames(frontend) == [
        f"cfn {cfn} caches pfn {pfn} but its C bit is clear"
    ]


def test_bank_checker_catches_closed_row_with_timing():
    machine = _machine()
    device = machine.scheme.hbm
    assert check_banks(device) == []
    bank = device.channels[0].banks[0]
    bank.open_row = None
    bank.ready_at = 100
    problems = check_banks(device)
    assert problems and "closed" in problems[0]


# -- discovery -------------------------------------------------------------

def test_build_checkers_discovers_nomad_components():
    machine = _machine("nomad")
    names = {name for name, _, _ in build_checkers(machine, GuardConfig())}
    assert {"event_queue", "rob", "mshr", "dram_bank",
            "frames", "tlb_coherence", "pcshr"} <= names


def test_build_checkers_baseline_has_no_pcshr():
    machine = _machine("baseline")
    names = {name for name, _, _ in build_checkers(machine, GuardConfig())}
    assert "event_queue" in names and "rob" in names
    assert "pcshr" not in names


# -- config / coercion -----------------------------------------------------

def test_guard_config_round_trip():
    cfg = GuardConfig(check_interval=7, chaos="leak_mshr", chaos_scheme="nomad")
    assert GuardConfig.from_dict(cfg.to_dict()) == cfg


def test_guard_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        GuardConfig.from_dict({"check_intervall": 5})


def test_as_guard_coercions():
    assert as_guard(None) is None
    assert as_guard(False) is None
    g = as_guard(True)
    assert isinstance(g, Guard)
    cfg = GuardConfig(check_interval=3)
    assert as_guard(cfg).config is cfg
    assert as_guard(g) is g
    with pytest.raises(TypeError):
        as_guard("yes")


# -- watchdog (unit level, fake machine) -----------------------------------

class _FakeCore:
    def __init__(self):
        self.inst_count = 10


class _FakeMachine:
    def __init__(self, sim):
        self.sim = sim
        self.cores = [_FakeCore()]


def test_progress_watchdog_trips_after_horizon(sim):
    from repro.guard.errors import DeadlockError

    guard = Guard(GuardConfig(deadlock_cycles=100))
    guard.machine = _FakeMachine(sim)
    guard._check_progress()  # records the baseline
    sim.now = 50
    guard._check_progress()  # inside the horizon: fine
    sim.now = 200
    with pytest.raises(DeadlockError, match="stalled"):
        guard._check_progress()


def test_progress_watchdog_resets_on_retirement(sim):
    guard = Guard(GuardConfig(deadlock_cycles=100))
    machine = _FakeMachine(sim)
    guard.machine = machine
    guard._check_progress()
    sim.now = 200
    machine.cores[0].inst_count += 1  # retirement = forward progress
    guard._check_progress()
    sim.now = 250
    guard._check_progress()  # horizon restarts from t=200
