"""The span tracer: a columnar event store and its Perfetto writer.

Components with an installed tracer call the ``*_begin``/``*_end``/
``*_span`` methods below from one-branch hook sites (``if self._tel is
not None``).  Every method is append-only and strictly read-only with
respect to simulation state, which is what keeps traced runs
bit-identical to untraced ones.

Storage: events are kept in emission order, one fixed-width record of
four int64 per event, ``(kind, ts, a, b)``, in a single ``array('q')``:

* ``kind >= KIND_DRAM`` -- a DRAM bank span; ``a`` is its duration.
  ``kind`` names an interned track: device pid, ``chX.bankY`` tid and
  ``rd./wr.`` + traffic-class name, resolved once per (device, channel,
  bank, direction, traffic class), so a burst builds no dict and formats
  no string;
* ``KIND_MSHR_BEGIN`` / ``KIND_MSHR_END`` -- an LLC MSHR hold time;
  ``a`` is the span id, ``b`` the line key (begin only);
* ``KIND_SIDE`` -- a rare event (page copies, OS spans, counters) kept as
  its trace-event dict at index ``a`` of a side list.

DRAM bursts and MSHR begin/end are ~98% of a traced run's events; as
records they cost 32 bytes each, where a trace-event dict costs ~370.
``max_trace_events`` caps the number of records: a begin or span past
the cap is dropped and counted per category, an end is always kept (so
capped traces stay balanced).  :meth:`Tracer.iter_events` renders the
records back to trace-event dicts (summaries, crash windows, tests);
:meth:`Tracer.iter_json` renders them straight to JSON text.

Writer: :func:`write_document` streams the document into a temporary
file next to the target, a few thousand events per chunk, and renames
it over the target once complete -- no document dict, no whole-file
string, and a run that dies mid-write leaves no truncated timeline.

Emitted document (the stable schema, version 1, unchanged by the store;
validated by :mod:`repro.telemetry.trace_schema`):

* JSON object with ``traceEvents`` (list), ``displayTimeUnit``,
  ``otherData`` (run metadata, ``schema_version``) and ``samples`` (the
  sampler's time series; Perfetto ignores unknown top-level keys);
* timestamps are **CPU cycles** (Perfetto renders them as microseconds;
  ``otherData.cycles_per_second`` converts);
* phases used: ``M`` metadata (process/thread names), ``b``/``e``/``n``
  nestable async spans (page copies keyed by PCSHR generation, MSHR
  hold times keyed by line key -- these overlap, so they need async
  tracks), ``X`` complete events (OS stalls per core, eviction-daemon
  batches, DRAM bank service), ``C`` counters (sampler series).

Track layout: one ``pid`` per subsystem (``cores/os``, ``page_copies``,
``mshr``, one per DRAM device, ``counters``), ``tid`` rows within it
(cores, the daemon, ``chX.bankY``).
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from array import array
from itertools import chain, islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.telemetry.config import (
    CAT_COUNTER,
    CAT_DRAM,
    CAT_MSHR,
    CAT_OS,
    CAT_PAGE_COPY,
    TelemetryConfig,
)

SCHEMA_VERSION = 1

PID_OS = 1  # cores + OS routines (X spans, one tid per core + daemon)
PID_COPY = 2  # page-copy lifecycles (async spans)
PID_MSHR = 3  # MSHR hold times (async spans)
PID_COUNTER = 4  # sampler counter series
PID_DRAM_BASE = 10  # one pid per DRAM device, assigned in order

RECORD = 4  # int64 fields per record: (kind, ts, a, b)
KIND_SIDE = 0
KIND_MSHR_BEGIN = 1
KIND_MSHR_END = 2
KIND_DRAM = 3  # first interned DRAM track

# One record as bytes: array.frombytes of a packed record appends about
# twice as fast as array.extend of a tuple.
_pack = struct.Struct(f"{RECORD}q").pack

#: Events joined into one string per write.
CHUNK_EVENTS = 4096

_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _json_prefix(fields: dict) -> str:
    """The JSON text of *fields*, left open for more members."""
    return _dumps(fields)[:-1] + ","


# The constant members of the MSHR events' JSON text.
_MSHR_BEGIN_JSON = _json_prefix({"ph": "b", "cat": CAT_MSHR, "name": "mshr",
                                 "pid": PID_MSHR, "tid": 0})
_MSHR_END_JSON = _json_prefix({"ph": "e", "cat": CAT_MSHR, "name": "mshr",
                               "pid": PID_MSHR, "tid": 0})


class _DRAMTrack:
    """One interned (device, channel, bank, direction, class) track."""

    __slots__ = ("name", "pid", "tid", "json", "label")

    def __init__(self, name: str, pid: int, tid: int, device: str):
        self.name = name
        self.pid = pid
        self.tid = tid
        self.json = _json_prefix({"ph": "X", "cat": CAT_DRAM, "name": name,
                                  "pid": pid, "tid": tid})
        self.label = f"dram.{device}"


class Tracer:
    """In-memory trace-event store for one run."""

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig()
        self.dropped: Dict[str, int] = {}
        self._records = array("q")
        self._side: List[dict] = []
        self._cap = RECORD * self.config.max_trace_events
        self._next_id = 1
        # Open async spans: key -> stack of (id, name) for copies,
        # key -> id for MSHRs, key -> (name, start, tid label) for OS
        # batches.
        self._open_copies: Dict[object, List[Tuple[int, str]]] = {}
        self._open_mshrs: Dict[int, int] = {}
        self._open_os: Dict[object, Tuple[str, int, str]] = {}
        self._dram_pids: Dict[str, int] = {}
        self._dram_tids: Dict[Tuple[int, int, int], int] = {}
        self._dram_kinds: Dict[tuple, int] = {}
        self._tracks: List[_DRAMTrack] = []
        self._os_tids: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------

    @property
    def num_events(self) -> int:
        return len(self._records) // RECORD

    def _drop(self, cat: str) -> None:
        self.dropped[cat] = self.dropped.get(cat, 0) + 1

    def _append_side(self, event: dict) -> None:
        self._records.frombytes(_pack(KIND_SIDE, 0, len(self._side), 0))
        self._side.append(event)

    def _emit(self, cat: str, event: dict) -> bool:
        if len(self._records) >= self._cap:
            self._drop(cat)
            return False
        self._append_side(event)
        return True

    def _os_tid(self, label: str) -> int:
        tid = self._os_tids.get(label)
        if tid is None:
            tid = len(self._os_tids)
            self._os_tids[label] = tid
        return tid

    # -- page-copy lifecycles (async spans) ----------------------------

    def copy_begin(self, key, name: str, ts: int, args: dict) -> None:
        """A page copy was accepted (PCSHR allocated / blocking copy
        started).  ``key`` identifies the in-flight copy until its
        matching :meth:`copy_end`; concurrent reuse nests (LIFO)."""
        span_id = self._next_id
        self._next_id += 1
        if self._emit(CAT_PAGE_COPY, {
            "ph": "b", "cat": CAT_PAGE_COPY, "id": span_id, "name": name,
            "pid": PID_COPY, "tid": 0, "ts": ts, "args": args,
        }):
            self._open_copies.setdefault(key, []).append((span_id, name))

    def copy_instant(self, key, phase: str, ts: int) -> None:
        """A sub-phase transition inside an open copy (launch / drain)."""
        stack = self._open_copies.get(key)
        if not stack:
            return
        span_id, name = stack[-1]
        self._emit(CAT_PAGE_COPY, {
            "ph": "n", "cat": CAT_PAGE_COPY, "id": span_id, "name": phase,
            "pid": PID_COPY, "tid": 0, "ts": ts,
        })

    def copy_end(self, key, ts: int, args: Optional[dict] = None) -> None:
        stack = self._open_copies.get(key)
        if not stack:
            return  # begin was dropped (event cap) or never traced
        span_id, name = stack.pop()
        if not stack:
            del self._open_copies[key]
        event = {
            "ph": "e", "cat": CAT_PAGE_COPY, "id": span_id, "name": name,
            "pid": PID_COPY, "tid": 0, "ts": ts,
        }
        if args:
            event["args"] = args
        self._append_side(event)  # never drop an end: keep b/e balanced

    # -- OS spans (complete events on per-core rows) -------------------

    def os_span(self, tid_label: str, name: str, ts: int, dur: int,
                args: Optional[dict] = None) -> None:
        """One finished OS interval (tag-miss stall on a core row)."""
        event = {
            "ph": "X", "cat": CAT_OS, "name": name, "pid": PID_OS,
            "tid": self._os_tid(tid_label), "ts": ts, "dur": dur,
        }
        if args:
            event["args"] = args
        self._emit(CAT_OS, event)

    def os_begin(self, key, name: str, tid_label: str, ts: int) -> None:
        """Open interval closed later by :meth:`os_end` (daemon batches)."""
        self._open_os[key] = (name, ts, tid_label)

    def os_end(self, key, ts: int, args: Optional[dict] = None) -> None:
        opened = self._open_os.pop(key, None)
        if opened is None:
            return
        name, t0, tid_label = opened
        self.os_span(tid_label, name, t0, ts - t0, args)

    # -- MSHR hold times (async spans) ---------------------------------

    def mshr_begin(self, key: int, ts: int) -> None:
        if key in self._open_mshrs:
            return  # defensive: one entry per key at a time
        span_id = self._next_id
        self._next_id += 1
        records = self._records
        if len(records) >= self._cap:
            self._drop(CAT_MSHR)
            return
        records.frombytes(_pack(KIND_MSHR_BEGIN, ts, span_id, key))
        self._open_mshrs[key] = span_id

    def mshr_end(self, key: int, ts: int) -> None:
        span_id = self._open_mshrs.pop(key, None)
        if span_id is None:
            return
        self._records.frombytes(_pack(KIND_MSHR_END, ts, span_id, 0))

    # -- DRAM bank service (complete events per bank row) --------------

    def dram_span(self, device: str, channel: int, bank: int, ts: int,
                  end: int, is_write: bool, traffic_class) -> None:
        kind = self._dram_kinds.get(
            (device, channel, bank, is_write, traffic_class))
        if kind is None:
            kind = self._dram_track(device, channel, bank, is_write,
                                    traffic_class)
        records = self._records
        if len(records) >= self._cap:
            self._drop(CAT_DRAM)
            return
        records.frombytes(_pack(kind, ts, end - ts, 0))

    def _dram_track(self, device: str, channel: int, bank: int,
                    is_write: bool, traffic_class) -> int:
        """Intern a DRAM track (tracks of dropped bursts too: their
        metadata names every bank the run touched)."""
        pid = self._dram_pids.get(device)
        if pid is None:
            pid = PID_DRAM_BASE + len(self._dram_pids)
            self._dram_pids[device] = pid
        tid_key = (pid, channel, bank)
        tid = self._dram_tids.get(tid_key)
        if tid is None:
            tid = len([k for k in self._dram_tids if k[0] == pid])
            self._dram_tids[tid_key] = tid
        name = ("wr." if is_write else "rd.") + traffic_class.name
        kind = KIND_DRAM + len(self._tracks)
        self._tracks.append(_DRAMTrack(name, pid, tid, device))
        self._dram_kinds[(device, channel, bank, is_write,
                          traffic_class)] = kind
        return kind

    # -- counters (from sampler snapshots, at finalize) ----------------

    def counter(self, name: str, ts: int, values: Dict[str, float]) -> None:
        self._emit(CAT_COUNTER, {
            "ph": "C", "cat": CAT_COUNTER, "name": name, "pid": PID_COUNTER,
            "tid": 0, "ts": ts, "args": dict(values),
        })

    # -- rendering -----------------------------------------------------

    def iter_events(self) -> Iterator[dict]:
        """Every recorded event as its trace-event dict, in emission
        order (track metadata excluded: see :meth:`metadata_events`)."""
        return self._render(self._records)

    def tail(self, n: int) -> Iterator[dict]:
        """The last *n* recorded events, rendered like
        :meth:`iter_events` (all of them for ``n == 0``, like a
        ``[-0:]`` slice)."""
        return self._render(self._records[-RECORD * n:])

    def _render(self, records: array) -> Iterator[dict]:
        side, tracks = self._side, self._tracks
        it = iter(records)
        for kind, ts, a, b in zip(it, it, it, it):
            if kind >= KIND_DRAM:
                track = tracks[kind - KIND_DRAM]
                yield {"ph": "X", "cat": CAT_DRAM, "name": track.name,
                       "pid": track.pid, "tid": track.tid, "ts": ts,
                       "dur": a}
            elif kind == KIND_MSHR_BEGIN:
                yield {"ph": "b", "cat": CAT_MSHR, "id": a, "name": "mshr",
                       "pid": PID_MSHR, "tid": 0, "ts": ts,
                       "args": {"key": b}}
            elif kind == KIND_MSHR_END:
                yield {"ph": "e", "cat": CAT_MSHR, "id": a, "name": "mshr",
                       "pid": PID_MSHR, "tid": 0, "ts": ts}
            else:
                yield side[a]

    def iter_json(self) -> Iterator[str]:
        """:meth:`iter_events`, rendered straight to compact JSON text
        (members of hot events in their own order: the values match)."""
        side, tracks = self._side, self._tracks
        it = iter(self._records)
        for kind, ts, a, b in zip(it, it, it, it):
            if kind >= KIND_DRAM:
                yield f'{tracks[kind - KIND_DRAM].json}"ts":{ts},"dur":{a}}}'
            elif kind == KIND_MSHR_BEGIN:
                yield (f'{_MSHR_BEGIN_JSON}"id":{a},"ts":{ts},'
                       f'"args":{{"key":{b}}}}}')
            elif kind == KIND_MSHR_END:
                yield f'{_MSHR_END_JSON}"id":{a},"ts":{ts}}}'
            else:
                yield _dumps(side[a])

    @property
    def span_counts(self) -> Dict[str, int]:
        """Recorded spans per label (``copy.<name>``, ``os.<name>``,
        ``mshr``, ``dram.<device>``), in first-recorded order; dropped
        spans are not counted."""
        counts: Dict[str, int] = {}
        side, tracks = self._side, self._tracks
        it = iter(self._records)
        for kind, _ts, a, _b in zip(it, it, it, it):
            if kind >= KIND_DRAM:
                label = tracks[kind - KIND_DRAM].label
            elif kind == KIND_MSHR_BEGIN:
                label = "mshr"
            elif kind == KIND_SIDE:
                event = side[a]
                if event["cat"] == CAT_OS:
                    label = "os." + event["name"]
                elif event["cat"] == CAT_PAGE_COPY and event["ph"] == "b":
                    label = "copy." + event["name"]
                else:
                    continue
            else:
                continue
            counts[label] = counts.get(label, 0) + 1
        return counts

    # -- finalize ------------------------------------------------------

    def close_open_spans(self, ts: int) -> int:
        """Close anything still open (bounded runs / crashes); returns
        the number of spans closed, each flagged ``truncated``."""
        closed = 0
        for key in list(self._open_copies):
            while self._open_copies.get(key):
                self.copy_end(key, ts, args={"truncated": True})
                closed += 1
        for key in list(self._open_mshrs):
            self.mshr_end(key, ts)
            closed += 1
        for key in list(self._open_os):
            self.os_end(key, ts, args={"truncated": True})
            closed += 1
        return closed

    def metadata_events(self) -> List[dict]:
        """Process/thread name metadata for every track in use."""
        out: List[dict] = []

        def _meta(name: str, pid: int, args: dict, tid: int = 0) -> None:
            out.append({"ph": "M", "name": name, "pid": pid, "tid": tid,
                        "args": args})

        _meta("process_name", PID_OS, {"name": "cores / OS"})
        for label, tid in self._os_tids.items():
            _meta("thread_name", PID_OS, {"name": label}, tid=tid)
        _meta("process_name", PID_COPY, {"name": "page copies"})
        _meta("process_name", PID_MSHR, {"name": "LLC MSHRs"})
        _meta("process_name", PID_COUNTER, {"name": "counters"})
        for device, pid in self._dram_pids.items():
            _meta("process_name", pid, {"name": device})
        for (pid, channel, bank), tid in self._dram_tids.items():
            _meta("thread_name", pid,
                  {"name": f"ch{channel}.bank{bank}"}, tid=tid)
        return out


# -- the writer ---------------------------------------------------------


def write_document(path: Union[str, Path], tracer: Optional[Tracer],
                   other: dict, samples: List[dict]) -> None:
    """Stream the trace document of *tracer* (track metadata, then its
    records) into *path*, atomically."""
    events_json: Iterable[str] = ()
    if tracer is not None:
        events_json = chain(map(_dumps, tracer.metadata_events()),
                            tracer.iter_json())
    write_atomically(path, _document_chunks(events_json, other, samples))


def _document_chunks(events_json: Iterable[str], other: dict,
                     samples: List[dict]) -> Iterator[str]:
    """The document's JSON text, :data:`CHUNK_EVENTS` array items at a
    time (the top-level key order of the schema)."""
    yield '{"traceEvents":['
    yield from _array_items(events_json)
    yield '],"displayTimeUnit":"ns","otherData":'
    yield _dumps(other)
    yield ',"samples":['
    yield from _array_items(map(_dumps, samples))
    yield "]}"


def _array_items(texts: Iterable[str]) -> Iterator[str]:
    """Comma-separated JSON array items, joined per chunk."""
    texts = iter(texts)
    sep = ""
    while True:
        batch = list(islice(texts, CHUNK_EVENTS))
        if not batch:
            return
        yield sep + ",".join(batch)
        sep = ","


def write_atomically(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Write *chunks* into a temporary file in *path*'s directory and
    rename it over *path* once all are written.

    Whatever stops the writer part-way (an exception from *chunks*, a
    full disk, a killed process) leaves *path* as it was; the temporary
    file is removed unless the process itself died.  Nothing is
    fsynced: a timeline can be recorded again, so unlike the result
    store's ``atomic_write_json`` this does not guard against power loss.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
