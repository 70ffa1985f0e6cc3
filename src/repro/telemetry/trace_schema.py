"""Validation of the emitted trace-event documents.

``validate_trace`` returns a list of problems (empty = valid).  Used by
``repro timeline`` before summarizing, by the telemetry tests, and by
the CI sim-smoke job -- the schema documented in
:mod:`repro.telemetry.tracer` is a published contract, so drift must
fail loudly rather than silently producing Perfetto-unloadable JSON.

Schema versions:

* **1** -- single-run simulation traces (:mod:`repro.telemetry.tracer`).
* **2** -- adds the ``service`` category for cross-process campaign
  spans (:mod:`repro.obs.trace`): async ``b``/``e`` events whose
  ``args`` must carry the campaign-wide ``trace_id`` and their own
  ``span_id`` (equal to the event ``id``, which is what keeps the
  balance check exact across interleaved processes).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

ALLOWED_PHASES = {"M", "b", "e", "n", "X", "C"}
KNOWN_SCHEMA_VERSIONS = {1, 2}

#: Category of cross-process service spans (schema version 2+).
CAT_SERVICE = "service"

# Keys required per phase, beyond the universal ones.
_NEEDS_TS = {"b", "e", "n", "X", "C"}
_NEEDS_CAT_ID = {"b", "e", "n"}


def validate_trace(doc: object, max_problems: int = 20) -> List[str]:
    """Check *doc* against the telemetry trace schema."""
    problems: List[str] = []

    def _fail(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= max_problems

    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    other = doc.get("otherData")
    schema_version = 1
    if not isinstance(other, dict):
        problems.append("missing or non-dict 'otherData'")
    elif not isinstance(other.get("schema_version"), int):
        problems.append("otherData.schema_version missing or not an int")
    elif other["schema_version"] not in KNOWN_SCHEMA_VERSIONS:
        problems.append(
            f"otherData.schema_version {other['schema_version']} not in "
            f"{sorted(KNOWN_SCHEMA_VERSIONS)}"
        )
    else:
        schema_version = other["schema_version"]
    if "samples" in doc and not isinstance(doc["samples"], list):
        problems.append("'samples' present but not a list")

    balance: Dict[Tuple[str, str], int] = {}
    for i, event in enumerate(events):
        if len(problems) >= max_problems:
            problems.append("... (further problems suppressed)")
            break
        if not isinstance(event, dict):
            if _fail(f"event[{i}]: not an object"):
                continue
            continue
        ph = event.get("ph")
        if ph not in ALLOWED_PHASES:
            _fail(f"event[{i}]: ph {ph!r} not in {sorted(ALLOWED_PHASES)}")
            continue
        if not isinstance(event.get("name"), str):
            _fail(f"event[{i}] (ph={ph}): missing string 'name'")
        if not isinstance(event.get("pid"), int):
            _fail(f"event[{i}] (ph={ph}): missing int 'pid'")
        if ph in _NEEDS_TS and not isinstance(event.get("ts"), (int, float)):
            _fail(f"event[{i}] (ph={ph}): missing numeric 'ts'")
        if ph in _NEEDS_CAT_ID:
            if not isinstance(event.get("cat"), str):
                _fail(f"event[{i}] (ph={ph}): async event missing 'cat'")
            if "id" not in event:
                _fail(f"event[{i}] (ph={ph}): async event missing 'id'")
            else:
                key = (str(event.get("cat")), str(event["id"]))
                if ph == "b":
                    balance[key] = balance.get(key, 0) + 1
                elif ph == "e":
                    balance[key] = balance.get(key, 0) - 1
            if event.get("cat") == CAT_SERVICE:
                if schema_version < 2:
                    _fail(
                        f"event[{i}]: 'service' category requires "
                        f"schema_version >= 2"
                    )
                elif ph == "b":
                    args = event.get("args")
                    if not isinstance(args, dict) or not isinstance(
                        args.get("trace_id"), str
                    ):
                        _fail(
                            f"event[{i}] (service b): args.trace_id "
                            f"missing or not a string"
                        )
                    elif args.get("span_id") != str(event.get("id")):
                        _fail(
                            f"event[{i}] (service b): args.span_id must "
                            f"equal the event id"
                        )
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(f"event[{i}] (ph=X): missing non-negative 'dur'")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                _fail(f"event[{i}] (ph=C): args must map names to numbers")

    unbalanced = [key for key, n in balance.items() if n != 0]
    if unbalanced:
        sample = ", ".join(f"{cat}/{sid}" for cat, sid in unbalanced[:5])
        problems.append(
            f"{len(unbalanced)} async span(s) with unbalanced b/e events "
            f"(e.g. {sample})"
        )
    return problems
