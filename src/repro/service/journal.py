"""Append-only journal: the broker's only durable record of a campaign.

The store holds result *data*; everything else the broker knows about a
campaign -- its manifest, its queue, leases, and completions -- is in
this log, and a restarted broker rebuilds itself by replaying it (the
same :meth:`~repro.service.broker.Broker._apply` that committed each
entry live applies it again).

One JSONL file per campaign under ``<store>/service/journal/``; each
line is a single transition:

============= ========================================================
``manifest``  the campaign's full config list, logged when the list
              changes; ``/campaign`` serves it to ``--resume``
``enqueue``   batch accepted (carries indices + configs, so replay
              rebuilds batches without the manifest, and the
              submission's run options)
``lease``     batch leased to a runner (logged on claim, not on the
              much-chattier heartbeat renewals)
``requeue``   a lease expired and the batch went back on the queue
``complete``  batch done; carries its items slimmed (results
              themselves live in the content-addressed store and are
              rehydrated from it on demand)
``reenqueue`` a done batch whose store backing vanished was
              resubmitted; it runs again, under the resubmission's
              run options
============= ========================================================

Every line ends with a ``crc`` (CRC-32 of the canonical JSON of the
entry minus the crc field) and is flushed + fsynced before the broker
commits the transition in memory, so the journal can only ever be
*ahead* of acknowledged state, never behind.  Replay tolerates a torn
or corrupt tail line (the classic crash shape: power died mid-append)
by skipping and counting it -- everything acknowledged before the tear
is intact by construction.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, IO, List, Optional, Union

from repro import obs

_LOG = obs.get_logger("journal")

#: Fields stripped from complete-items before journaling.  Results and
#: telemetry are bulky and already durable in the content-addressed
#: store; the journal only needs enough to rebuild the record map.
SLIM_DROP = ("result", "telemetry", "traceback")


def _crc(entry: dict) -> int:
    canonical = json.dumps(
        {k: v for k, v in entry.items() if k != "crc"},
        sort_keys=True, separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode()) & 0xFFFFFFFF


def slim_item(item: dict) -> dict:
    """An item with bulky store-backed fields dropped (for ``complete``
    entries); :meth:`repro.service.broker.Broker.records` rehydrates
    results from the store when serving them."""
    return {k: v for k, v in item.items() if k not in SLIM_DROP}


class Journal:
    """Per-campaign append-only transition log with fsync-per-append."""

    def __init__(self, store_root: Union[str, Path],
                 fsync_observer: Optional[Callable[[float], None]] = None):
        self.root = Path(store_root) / "service" / "journal"
        self._lock = threading.Lock()
        self._handles: Dict[str, IO[bytes]] = {}
        self._closed = False
        self.appends = 0
        self.corrupt_lines = 0
        #: Called with the seconds one append's write+flush+fsync took
        #: (the broker feeds its fsync-latency histogram with this).
        self.fsync_observer = fsync_observer

    def path_for(self, campaign_id: str) -> Path:
        return self.root / f"{campaign_id}.jsonl"

    # -- append ------------------------------------------------------------

    def append(self, campaign_id: str, op: str, **fields) -> None:
        """Durably log one transition before the broker commits it.

        The handle is kept open per campaign ('ab'), so steady-state
        cost is one write + one fsync per transition.
        """
        entry = {"op": op, **fields}
        entry["crc"] = _crc(entry)
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
        with self._lock:
            if self._closed:
                # A closed journal belongs to a dead broker (shutdown or
                # the chaos harness's kill).  Refusing the append -- not
                # resurrecting the file -- is what keeps a killed
                # broker's in-flight handler from writing entries the
                # successor already replayed past: the caller's error
                # path leaves the batch leased, the lease expires, and
                # the re-run converges idempotently.
                raise OSError("journal is closed")
            fh = self._handles.get(campaign_id)
            if fh is None or fh.closed:
                self.root.mkdir(parents=True, exist_ok=True)
                fh = open(self.path_for(campaign_id), "ab")
                self._handles[campaign_id] = fh
            from repro.campaign.store import _FS

            t0 = time.perf_counter()
            _FS.write(fh, line, path=self.path_for(campaign_id))
            fh.flush()
            _FS.fsync(fh.fileno())
            self.appends += 1
            if self.fsync_observer is not None:
                self.fsync_observer(time.perf_counter() - t0)
        _LOG.debug("journal.append", campaign=campaign_id, op=op,
                   bytes=len(line))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for fh in self._handles.values():
                try:
                    fh.close()
                except OSError:
                    pass
            self._handles.clear()

    # -- replay ------------------------------------------------------------

    def replay(self, campaign_id: Optional[str] = None
               ) -> Dict[str, List[dict]]:
        """``{campaign_id: [entries...]}`` from disk, oldest first.

        Torn/corrupt lines (bad JSON, CRC mismatch, missing op) are
        skipped and counted in :attr:`corrupt_lines` -- a crash
        mid-append must not take the whole campaign's history with it.
        """
        out: Dict[str, List[dict]] = {}
        if not self.root.exists():
            return out
        paths = (
            [self.path_for(campaign_id)] if campaign_id is not None
            else sorted(self.root.glob("*.jsonl"))
        )
        for path in paths:
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            entries: List[dict] = []
            for line in raw.splitlines():
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line.decode())
                    if (not isinstance(entry, dict) or "op" not in entry
                            or entry.get("crc") != _crc(entry)):
                        raise ValueError("bad journal entry")
                except (ValueError, UnicodeDecodeError):
                    self.corrupt_lines += 1
                    continue
                entries.append(entry)
            if entries:
                out[path.stem] = entries
        if out:
            _LOG.info(
                "journal.replay", campaigns=len(out),
                entries=sum(len(v) for v in out.values()),
                corrupt_lines=self.corrupt_lines,
            )
        return out

    def stats(self) -> Dict[str, object]:
        files = (
            sorted(self.root.glob("*.jsonl")) if self.root.exists() else []
        )
        return {
            "campaigns": len(files),
            "appends": self.appends,
            "corrupt_lines": self.corrupt_lines,
            "bytes": sum(p.stat().st_size for p in files),
            "root": str(self.root),
        }
