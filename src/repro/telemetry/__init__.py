"""Opt-in run observability: time-series sampling + Perfetto traces.

Public surface:

* :class:`TelemetryConfig` / :class:`Telemetry` -- attached via
  ``Machine.run(telemetry=...)`` or ``repro run --timeline``;
* :func:`as_telemetry` -- normalize ``True`` / config / telemetry
  arguments (mirrors ``repro.guard.as_guard``);
* ``repro.telemetry.timeline`` -- offline trace summaries
  (``repro timeline``), overlap fraction;
* ``repro.telemetry.trace_schema`` -- document validation.

Zero-cost when off: components carry a ``_tel = None`` class attribute
and pay one always-false branch per hook site; no Telemetry object, no
other overhead.  Those branches are inside the engine opcode counts
that ``repro bench`` gates, so a hook that does more work when off
shows there.
"""

from __future__ import annotations

from repro.telemetry.config import (
    ALL_CATEGORIES,
    DEFAULT_CAMPAIGN_CATEGORIES,
    TelemetryConfig,
)
from repro.telemetry.core import Telemetry, as_telemetry
from repro.telemetry.heartbeat import HeartbeatStats, make_heartbeat

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_CAMPAIGN_CATEGORIES",
    "HeartbeatStats",
    "Telemetry",
    "TelemetryConfig",
    "as_telemetry",
    "make_heartbeat",
]
