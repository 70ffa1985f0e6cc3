"""Scheduling edge cases the fast loops must keep rejecting/handling."""

import pytest


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError, match="negative delay"):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError, match="past"):
        sim.schedule_at(5, lambda: None)


def test_schedule_at_now_is_allowed(sim):
    fired = []
    sim.schedule(10, lambda: sim.schedule_at(10, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [10]


def test_cancel_then_fire_is_a_noop(sim):
    fired = []
    ev = sim.schedule(5, lambda: fired.append("cancelled"))
    sim.schedule(5, lambda: fired.append("kept"))
    ev.cancel()
    processed = sim.run()
    assert fired == ["kept"]
    assert processed == 1, "a cancelled event must not count as processed"


def test_cancel_is_idempotent(sim):
    ev = sim.schedule(5, lambda: None)
    ev.cancel()
    ev.cancel()  # second cancel must not corrupt the live counter
    assert sim.pending_events == 0
    assert sim.run() == 0


def test_events_processed_accumulates_across_runs(sim):
    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=2) == 2
    assert sim.events_processed == 2
    assert sim.run() == 1
    assert sim.events_processed == 3
    # A later run starts from the accumulated count, never resets it.
    sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_events_processed_identical_in_guarded_loop(sim):
    """The guarded loop must count exactly like the fast loops."""

    class _NullGuard:
        def before_event(self, time, seq, callback):
            pass

        def after_event(self):
            pass

    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    sim.attach_guard(_NullGuard())
    assert sim.run(max_events=2) == 2
    assert sim.events_processed == 2
    assert sim.run() == 1
    assert sim.events_processed == 3
    # A guarded, time-bounded run stops at ``until`` and leaves later
    # events queued, exactly like the unguarded bounded loop.
    for delay in (1, 2, 10):
        sim.schedule(delay, lambda: None)
    start = sim.now
    assert sim.run(until=start + 5) == 2
    assert sim.now == start + 5
    assert sim.events_processed == 5
    assert sim.pending_events == 1
    assert sim.run() == 1
    assert sim.events_processed == 6
