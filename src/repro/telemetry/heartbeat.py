"""Heartbeat payloads: campaign progress as transportable telemetry.

PR 4 gave pool campaigns live ``done``/``heartbeat`` progress events;
the service layer needs the same signal to travel: a runner forwards
each event to the broker as a small JSON payload that carries rolling
throughput and the amortization-cache counters, which the broker shows
per runner on ``/status`` and re-exports on ``/metrics``.  This module
is the one place that payload shape is defined.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

#: Completion timestamps kept for the rolling throughput window.
THROUGHPUT_WINDOW = 64


class HeartbeatStats:
    """Rolling runner-side state folded into each heartbeat."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._completions: Deque[Tuple[float, int]] = deque(
            maxlen=THROUGHPUT_WINDOW
        )

    def observe(self, completed: int) -> None:
        """Record a progress event's cumulative completion count."""
        self._completions.append((self._clock(), int(completed)))

    def runs_per_sec(self) -> float:
        """Throughput over the retained completion window."""
        if len(self._completions) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self._completions[0], self._completions[-1]
        if t1 <= t0 or c1 <= c0:
            return 0.0
        return (c1 - c0) / (t1 - t0)


def make_heartbeat(
    runner_id: str,
    progress: Dict[str, object],
    cache_counts: Dict[str, Dict[str, int]],
    stats: Optional[HeartbeatStats] = None,
    obs_counters: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """The canonical heartbeat payload.

    ``progress`` is a campaign progress-event info dict
    (``completed``/``outstanding``/``total``); ``cache_counts`` the
    runner's own cache work, in the transportable sections of
    :func:`repro.harness.runner.cache_counts`.
    ``obs_counters`` are cumulative runner-process observability
    counters (backoff retries, batch wall-clock seconds, batches done)
    that the broker re-exports per runner on ``/metrics``.
    """
    payload: Dict[str, object] = {
        "runner_id": runner_id,
        "completed": int(progress.get("completed", 0)),
        "outstanding": int(progress.get("outstanding", 0)),
        "total": int(progress.get("total", 0)),
        "cache": {k: dict(v) for k, v in (cache_counts or {}).items()},
    }
    if stats is not None:
        payload["runs_per_sec"] = round(stats.runs_per_sec(), 4)
    if obs_counters:
        payload["obs"] = {k: round(float(v), 4)
                          for k, v in obs_counters.items()}
    return payload

