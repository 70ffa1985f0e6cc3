"""Crash diagnostic bundles + deterministic replay.

When a guarded run dies, ``Machine.run`` asks the guard to write a
bundle: one directory holding ``bundle.json`` with everything needed to
(a) post-mortem the failure without rerunning, and (b) rerun it
deterministically -- the serialized ``RunConfig`` (seed included), the
:class:`GuardConfig` (chaos injection included), a version stamp, the
events-processed count, the ring buffer of the last K dispatched events,
and per-component state dumps.

``replay_bundle`` (exposed as ``python -m repro replay BUNDLE``) rebuilds
the run from the bundle's config with guards forced on, bypassing every
cache, and reports whether the same failure recurred at the same event
count.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.guard.core import Guard, GuardConfig, callback_name, queue_head
from repro.guard.errors import GuardError

BUNDLE_VERSION = 1
_counter = 0  # disambiguates bundles within one process


def default_bundle_dir() -> Path:
    """``$REPRO_GUARD_BUNDLES`` if set, else ``~/.cache/repro-nomad/bundles``."""
    env = os.environ.get("REPRO_GUARD_BUNDLES")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-nomad" / "bundles"


def _sim_version() -> str:
    import repro

    return repro.__version__


def write_bundle(guard: Guard, exc: BaseException, machine) -> Path:
    """Serialize one failure into a fresh bundle directory."""
    global _counter
    _counter += 1
    root = Path(guard.config.bundle_dir or default_bundle_dir())
    name = f"bundle-{int(time.time())}-{os.getpid()}-{_counter}"
    path = root / name
    path.mkdir(parents=True, exist_ok=True)

    sim = machine.sim if machine is not None else None
    components = {}
    if sim is not None:
        for component in sim.components:
            state = component.guard_state()
            stats = component.metrics()
            if state or stats:
                components[component.name] = {"state": state, "stats": stats}

    error = {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "failure_kind": getattr(exc, "failure_kind", "crash"),
        "checker": getattr(exc, "checker", None),
        "component": getattr(exc, "component", None),
        "problems": getattr(exc, "problems", None),
        "snapshot": getattr(exc, "snapshot", None),
    }
    data = {
        "bundle_version": BUNDLE_VERSION,
        "sim_version": _sim_version(),
        "created_unix": time.time(),
        "run_config": guard.run_config,
        "guard_config": guard.config.to_dict(),
        "chaos_applied": guard.chaos_applied,
        "error": error,
        "events_processed": sim.events_processed if sim is not None else None,
        "now": sim.now if sim is not None else None,
        "pending_events": sim.pending_events if sim is not None else None,
        "queue_head": queue_head(sim) if sim is not None else None,
        "ring": [
            f"t={t} seq={s} {callback_name(cb)}" for t, s, cb in guard.ring
        ],
        "components": components,
        "telemetry_window": guard.telemetry_window,
    }
    (path / "bundle.json").write_text(
        json.dumps(data, indent=1, sort_keys=True, default=str)
    )
    return path


def load_bundle(path: Union[str, Path]) -> dict:
    """Read a bundle given its directory or its ``bundle.json`` path."""
    p = Path(path)
    if p.is_dir():
        p = p / "bundle.json"
    try:
        return json.loads(p.read_text())
    except OSError as exc:
        raise GuardError(f"cannot read bundle at {path}: {exc}") from exc
    except ValueError as exc:
        raise GuardError(f"corrupt bundle at {path}: {exc}") from exc


@dataclass
class ReplayReport:
    """Outcome of replaying one bundle."""

    bundle_path: str
    reproduced: bool
    expected: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    detail: str = ""
    telemetry_window: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "bundle_path": self.bundle_path,
            "reproduced": self.reproduced,
            "expected": dict(self.expected),
            "observed": dict(self.observed),
            "detail": self.detail,
            "telemetry_window": self.telemetry_window,
        }

    def describe(self) -> str:
        if self.reproduced:
            head = (
                f"reproduced: {self.expected.get('type')} "
                f"({self.expected.get('checker') or 'crash'}) at "
                f"{self.expected.get('events_processed')} events"
            )
        else:
            head = f"NOT reproduced: {self.detail}"
        window = self.telemetry_window
        if not window:
            return head
        lines = [head, "telemetry at failure:"]
        samples = window.get("samples") or []
        if samples:
            last = samples[-1]
            keys = ("t", "instructions", "ipc", "active_copies",
                    "mshr_outstanding", "free_frames", "pending_events")
            parts = ", ".join(
                f"{k}={last[k]}" for k in keys if k in last
            )
            lines.append(f"  last sample: {parts}")
            lines.append(f"  window: {len(samples)} sample(s), "
                         f"{window.get('num_samples', 0)} total")
        for label in (window.get("trace_tail") or [])[-8:]:
            lines.append(f"  {label}")
        return "\n".join(lines)


def replay_bundle(path: Union[str, Path]) -> ReplayReport:
    """Re-run a bundle's config deterministically with guards forced on.

    Clears the in-process memo and trace caches and runs without any
    result store, so the simulation genuinely re-executes.  The replay
    matches on the exception type, the failing checker, and the event
    count at failure.
    """
    data = load_bundle(path)
    run_config = data.get("run_config")
    if not run_config:
        raise GuardError(
            f"bundle at {path} carries no run_config; it cannot be replayed"
        )
    guard_cfg = GuardConfig.from_dict(data.get("guard_config") or {})
    # Never write a nested bundle from the replay itself.
    guard_cfg = GuardConfig.from_dict(
        {**guard_cfg.to_dict(), "write_bundle": False}
    )
    expected = {
        "type": (data.get("error") or {}).get("type"),
        "checker": (data.get("error") or {}).get("checker"),
        "events_processed": data.get("events_processed"),
    }

    from repro.harness import runner
    from repro.harness.runner import RunConfig
    from repro.workloads.synthetic import clear_trace_cache

    cfg = RunConfig.from_dict(run_config)
    runner.clear_cache()
    clear_trace_cache()
    prev_store = runner.set_result_store(None)
    guard = Guard(guard_cfg, run_config=dict(run_config))
    try:
        runner.run_workload(cfg, guard=guard)
        observed = {"type": None, "checker": None, "events_processed": None}
        detail = "replay completed without failing"
    except Exception as exc:  # deterministic failures compare below
        observed = {
            "type": type(exc).__name__,
            "checker": getattr(exc, "checker", None),
            "events_processed": guard.events_at_failure,
        }
        detail = f"replay failed with {type(exc).__name__}: {exc}"
    finally:
        runner.set_result_store(prev_store)

    reproduced = (
        observed["type"] == expected["type"]
        and observed["checker"] == expected["checker"]
        and observed["events_processed"] == expected["events_processed"]
    )
    if reproduced:
        detail = "same failure at the same event count"
    else:
        detail = (
            f"expected {expected['type']}/{expected['checker']} at "
            f"{expected['events_processed']} events, got "
            f"{observed['type']}/{observed['checker']} at "
            f"{observed['events_processed']} ({detail})"
        )
    return ReplayReport(
        bundle_path=str(path),
        reproduced=reproduced,
        expected=expected,
        observed=observed,
        detail=detail,
        telemetry_window=data.get("telemetry_window"),
    )
