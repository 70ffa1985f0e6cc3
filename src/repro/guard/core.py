"""The guard runtime: config, event hooks, watchdog, chaos hook.

A :class:`Guard` is attached to a :class:`~repro.engine.simulator.
Simulator` for one run.  The simulator's guarded dispatch loop calls
``before_event`` / ``after_event`` around every callback (duck-typed --
the engine never imports this package), which gives the guard:

* a bounded ring buffer of the last K dispatched events (for bundles),
* dispatch-time monotonicity checking and a same-cycle livelock counter,
* a check cadence: every ``check_interval`` events all registered
  component checkers run, then the forward-progress watchdog compares
  retirement and queue depth against a cycle horizon,
* a deterministic fault-injection point (``chaos`` in the config), so a
  chaos run is fully described by its :class:`GuardConfig` and can be
  replayed from a bundle.

Guards are strictly opt-in: with no guard attached the simulator's run
loop calls no hooks and pays nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Tuple

from repro.guard.checkers import CheckerEntry, build_checkers
from repro.guard.errors import DeadlockError, InvariantViolation


@dataclass(frozen=True)
class GuardConfig:
    """Knobs of one guarded run (serialized into crash bundles)."""

    check_interval: int = 2000  # events between full checker sweeps
    ring_size: int = 256  # dispatched events kept for the bundle
    deadlock_cycles: int = 2_000_000  # cycle horizon with no progress
    livelock_events: int = 100_000  # same-cycle events before livelock
    mshr_age_limit: int = 2_000_000  # cycles before an MSHR counts as leaked
    bundle_dir: Optional[str] = None  # None -> $REPRO_GUARD_BUNDLES/default
    write_bundle: bool = True
    # Fault injection (test-only; see repro.guard.chaos).  Naming an
    # injection here makes the corruption part of the run's config, which
    # is what lets `repro replay` reproduce a chaos crash from its bundle.
    chaos: Optional[str] = None
    chaos_at_event: int = 2000
    chaos_scheme: Optional[str] = None  # inject only into this scheme

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "GuardConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"GuardConfig.from_dict: unknown keys {sorted(unknown)}"
            )
        return cls(**d)


class Guard:
    """Runtime state of one guarded run."""

    def __init__(self, config: Optional[GuardConfig] = None,
                 run_config: Optional[dict] = None):
        self.config = config if config is not None else GuardConfig()
        self.run_config = run_config
        self.machine = None
        self.ring: deque = deque(maxlen=self.config.ring_size)
        self.events_seen = 0
        self.checks_run = 0
        self.violations = 0  # bumped just before raising
        self._checkers: List[CheckerEntry] = []
        self._since_check = 0
        # Dispatch-time monotonicity / same-cycle livelock state.
        self._last_time = -1
        self._same_time_events = 0
        # Forward-progress watchdog state.
        self._progress_now = 0
        self._progress_insts = -1
        self._progress_pending = -1
        # Chaos injection state.
        self._chaos_pending = self.config.chaos
        self.chaos_applied: Optional[str] = None
        self.chaos_expected_checker: Optional[str] = None
        # Filled in by Machine.run when a guarded run dies.
        self.last_exception: Optional[BaseException] = None
        self.events_at_failure: Optional[int] = None
        # Last telemetry window (when the dead run was also observed).
        self.telemetry_window: Optional[dict] = None

    # -- lifecycle -----------------------------------------------------

    def install(self, machine) -> None:
        """Bind to a machine and discover its checkers."""
        self.machine = machine
        if (
            self.config.chaos_scheme is not None
            and machine.scheme.scheme_name != self.config.chaos_scheme
        ):
            self._chaos_pending = None  # chaos targets a different scheme
        self._checkers = build_checkers(machine, self.config)
        self._since_check = 0
        self._last_time = -1
        self._same_time_events = 0
        self._progress_now = machine.sim.now
        self._progress_insts = -1
        self._progress_pending = -1

    # -- per-event hooks (called from Simulator.run) --------------------

    def before_event(self, time: int, seq: int,
                     callback: Callable[[], None]) -> None:
        self.events_seen += 1
        self.ring.append((time, seq, callback))
        last = self._last_time
        if time < last:
            self.violations += 1
            raise InvariantViolation(
                "event_queue",
                [f"dispatch time went backwards: t={time} after t={last}"],
                component="simulator",
                snapshot=self._snapshot(),
            )
        if time == last:
            self._same_time_events += 1
            if self._same_time_events > self.config.livelock_events:
                self.violations += 1
                raise DeadlockError(
                    self._stall_message(
                        f"simulation stalled (livelock): "
                        f"{self._same_time_events} consecutive events "
                        f"without the clock advancing past t={time}"
                    ),
                    snapshot=self._snapshot(),
                )
        else:
            self._same_time_events = 0
            self._last_time = time

    def after_event(self) -> None:
        if self._chaos_pending is not None and \
                self.events_seen >= self.config.chaos_at_event:
            self._apply_chaos()
            if self.chaos_applied is not None:
                # Sweep immediately: the corruption must be *detected*,
                # not crashed on (or healed) by subsequent simulation.
                self._since_check = 0
                self.check_now()
                return
        self._since_check += 1
        if self._since_check >= self.config.check_interval:
            self._since_check = 0
            self.check_now()

    # -- checks --------------------------------------------------------

    def check_now(self) -> None:
        """Run every registered checker, then the progress watchdog."""
        self.checks_run += 1
        for name, component, thunk in self._checkers:
            problems = thunk()
            if problems:
                self.violations += 1
                raise InvariantViolation(
                    name, problems, component=component,
                    snapshot=self._snapshot(),
                )
        self._check_progress()

    def _check_progress(self) -> None:
        machine = self.machine
        if machine is None:
            return
        sim = machine.sim
        insts = sum(core.inst_count for core in machine.cores)
        pending = sim.pending_events
        if (
            self._progress_insts < 0
            or insts != self._progress_insts
            or pending < self._progress_pending
        ):
            # Retirement advanced or the queue drained below its previous
            # low-water mark: that is forward progress.
            self._progress_insts = insts
            self._progress_pending = pending
            self._progress_now = sim.now
            return
        if sim.now - self._progress_now > self.config.deadlock_cycles:
            self.violations += 1
            raise DeadlockError(
                self._stall_message(
                    f"simulation stalled (no forward progress): no "
                    f"retirement and no net queue drain for "
                    f"{sim.now - self._progress_now} cycles "
                    f"(horizon {self.config.deadlock_cycles})"
                ),
                snapshot=self._snapshot(),
            )

    # -- chaos ---------------------------------------------------------

    def _apply_chaos(self) -> None:
        from repro.guard import chaos

        name = self._chaos_pending
        expected = chaos.apply_injection(name, self.machine)
        if expected is None:
            return  # state not injectable yet; retry next event
        self._chaos_pending = None
        self.chaos_applied = name
        self.chaos_expected_checker = expected

    # -- reporting -----------------------------------------------------

    def _snapshot(self) -> dict:
        machine = self.machine
        sim = machine.sim if machine is not None else None
        snap = {"events_seen": self.events_seen}
        if sim is not None:
            snap.update(
                now=sim.now,
                events_processed=sim.events_processed,
                pending_events=sim.pending_events,
            )
        return snap

    def _stall_message(self, headline: str) -> str:
        machine = self.machine
        lines = [headline]
        if machine is not None:
            lines.extend(progress_report(machine))
        return "\n".join(lines)

    def queue_head(self) -> Optional[Tuple[int, int, str]]:
        machine = self.machine
        if machine is None:
            return None
        return queue_head(machine.sim)

    def write_bundle(self, exc: BaseException):
        """Emit a diagnostic bundle; returns its path (or None)."""
        if not self.config.write_bundle:
            return None
        from repro.guard import bundle

        return bundle.write_bundle(self, exc, self.machine)


# ---------------------------------------------------------------------------
# Shared diagnostics (also used by Machine's stall report)
# ---------------------------------------------------------------------------

def callback_name(cb) -> str:
    """Readable label for an event callback (closures, partials, methods)."""
    qualname = getattr(cb, "__qualname__", None)
    if qualname:
        return qualname
    inner = getattr(cb, "func", None)  # functools.partial
    if inner is not None:
        return f"partial({callback_name(inner)})"
    return type(cb).__name__


def queue_head(sim) -> Optional[Tuple[int, int, str]]:
    """(time, seq, callback label) of the next live event, if any."""
    event = sim._queue.first_live()
    if event is None:
        return None
    return event.time, event.seq, callback_name(event.callback)


def progress_report(machine) -> List[str]:
    """Queue head + per-component one-liners for stall diagnostics."""
    sim = machine.sim
    lines = [
        f"  now={sim.now} events_processed={sim.events_processed} "
        f"pending={sim.pending_events}"
    ]
    head = queue_head(sim)
    if head is not None:
        lines.append(
            f"  queue head: t={head[0]} seq={head[1]} callback={head[2]}"
        )
    for component in sim.components:
        state = component.guard_state()
        if state:
            summary = " ".join(f"{k}={v}" for k, v in state.items())
            lines.append(f"  {component.name}: {summary}")
    return lines
