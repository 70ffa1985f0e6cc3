"""Persistent, content-addressed result store.

Each :class:`MachineResult` is cached on disk under a SHA-256 key of the
canonical JSON of its serialized :class:`RunConfig` plus a simulator
version stamp, so

* the same run requested from any process or any later session is a
  cache hit,
* any change to the run's parameters -- including nested scheme-config
  knobs -- changes the key, and
* bumping the simulator version (``repro.__version__`` by default)
  invalidates everything at once without deleting files.

Entries carry the full config alongside the result; ``get`` verifies it
against the requested config so hash collisions or corrupted payloads
degrade to a miss, never to a wrong result.  All writes -- results and
quarantine records alike -- go through one atomic path (temp file +
``fsync`` + ``os.replace`` + parent-directory ``fsync``), so concurrent
campaign workers, service runners, and readers can share one store
directory and a killed writer can never leave a truncated JSON behind,
even across power loss.  Every payload also carries an ``integrity``
sha256 over its canonical content, so ``repro scrub`` can tell a
bit-flipped record from a healthy one without re-running anything.

The actual syscalls go through a tiny swappable filesystem shim
(:func:`install_fs`), which is how the service chaos layer injects
ENOSPC, torn writes, and bit flips into exactly these paths
(:class:`repro.service.chaos.FaultyFS`) without monkeypatching.

An optional :class:`repro.service.index.ResultIndex` can be attached
with :meth:`attach_index`; every ``put``/``put_failure`` then writes
through to the SQLite index so the store is queryable
(``repro results``) without directory walks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.harness.runner import RunConfig
from repro.system.machine import MachineResult


class _RealFS:
    """The filesystem calls :func:`atomic_write_json` depends on.

    A single seam for the chaos layer: swap in a faulty implementation
    with :func:`install_fs` and every store and journal write in
    the process goes through it.  ``path`` on :meth:`write` is the
    *destination* path (the tmp file is anonymous), so fault plans can
    target "store records" vs "service metadata" precisely.
    """

    def write(self, fh, data: bytes, path: Optional[Path] = None) -> int:
        return fh.write(data)

    def fsync(self, fileno: int) -> None:
        os.fsync(fileno)

    def replace(self, src, dst) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: Path) -> None:
        # Directory fsync persists the rename itself (the file's data
        # being durable is useless if the directory entry is lost on
        # power failure).  Best-effort: some filesystems/platforms
        # refuse O_RDONLY fsync on directories.
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


_FS = _RealFS()


def install_fs(fs) -> object:
    """Swap the filesystem shim; returns the previous one.

    Used by :mod:`repro.service.chaos` to inject ENOSPC / torn-write /
    bit-flip faults into real write paths.  Callers must restore the
    previous shim (``faulty_fs`` does this in a context manager).
    """
    global _FS
    prev = _FS
    _FS = fs
    return prev


def atomic_write_json(path: Path, payload: dict) -> Path:
    """Durably replace *path* with the JSON of *payload*.

    The bytes are written to a sibling temp file, fsynced, then renamed
    over the target, and finally the parent directory is fsynced so the
    rename itself survives power loss -- readers see either the old
    entry or the complete new one, never a torn write, even if the
    writer is SIGKILLed mid-call.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(payload).encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            _FS.write(fh, data, path=path)
            fh.flush()
            _FS.fsync(fh.fileno())
        _FS.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _FS.fsync_dir(path.parent)
    return path


def content_key(config: dict, version: str) -> str:
    """sha256 of the canonical ``{config, version}`` JSON.

    The one key function for the whole store: ``ResultStore.key``
    delegates here, and ``repro scrub`` recomputes it from each file's
    own payload to verify the file sits at its content address."""
    canonical = json.dumps(
        {"config": config, "version": version},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_integrity(payload: dict) -> str:
    """Checksum over a store payload's meaningful content.

    Covers ``config``, ``version``, and whichever of ``result`` /
    ``failure`` is present -- everything except the ``integrity`` field
    itself -- so a single flipped bit anywhere in the record is
    detectable even when the file still parses as JSON."""
    body = {
        k: payload.get(k)
        for k in ("config", "version", "result", "failure")
        if k in payload
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_store_dir() -> Path:
    """``$REPRO_STORE`` if set, else ``~/.cache/repro-nomad``."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-nomad"


def _sim_version() -> str:
    import repro

    return repro.__version__


class ResultStore:
    """Disk cache of ``RunConfig -> MachineResult`` shared across processes."""

    def __init__(self, root: Union[str, Path], version: Optional[str] = None):
        self.root = Path(root)
        self.version = version if version is not None else _sim_version()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._index = None

    def attach_index(self, index) -> None:
        """Write-through every ``put``/``put_failure`` to *index* (a
        :class:`repro.service.index.ResultIndex` or duck-type)."""
        self._index = index

    # -- keys --------------------------------------------------------------

    def key(self, cfg: RunConfig) -> str:
        return content_key(cfg.to_dict(), self.version)

    def path_for(self, cfg: RunConfig) -> Path:
        key = self.key(cfg)
        return self.root / key[:2] / f"{key}.json"

    # -- access ------------------------------------------------------------

    def get(self, cfg: RunConfig) -> Optional[MachineResult]:
        path = self.path_for(cfg)
        try:
            payload = json.loads(path.read_text())
            if payload.get("config") != cfg.to_dict():
                raise ValueError("stored config does not match request")
            # Records written since the integrity stamp was introduced
            # verify end-to-end: a bit flip anywhere in the payload --
            # including the result values, which the config comparison
            # cannot see -- degrades to a miss, never a wrong result.
            integrity = payload.get("integrity")
            if (integrity is not None
                    and integrity != payload_integrity(payload)):
                raise ValueError("integrity checksum mismatch")
            result = MachineResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cfg: RunConfig, result: MachineResult) -> Path:
        path = self.path_for(cfg)
        payload = {
            "version": self.version,
            "config": cfg.to_dict(),
            "result": result.to_dict(),
        }
        payload["integrity"] = payload_integrity(payload)
        atomic_write_json(path, payload)
        self.writes += 1
        if self._index is not None:
            self._index.ingest_result(
                self.key(cfg), cfg.to_dict(), result.to_dict(),
                version=self.version,
            )
        return path

    # -- quarantine --------------------------------------------------------
    #
    # Deterministic failures (an invariant violation that reproduces, a
    # worker that crashes twice on the same config) are recorded here so
    # later campaigns skip the config instead of burning retry budget on
    # it.  Records live under ``root/quarantine/`` and are keyed exactly
    # like results, so a version bump clears the quarantine too.

    def failure_path_for(self, cfg: RunConfig) -> Path:
        return self.root / "quarantine" / f"{self.key(cfg)}.json"

    def put_failure(self, cfg: RunConfig, info: Dict[str, object]) -> Path:
        """Quarantine *cfg*; ``info`` describes the deterministic failure
        (``failure_kind``, ``error``, ``bundle_path``, ``traceback``).

        Atomic + durable like :meth:`put`: a runner killed mid-write
        cannot leave a truncated record that poisons later
        ``get_failure`` calls (those degrade to a miss regardless)."""
        path = self.failure_path_for(cfg)
        payload = {
            "version": self.version,
            "config": cfg.to_dict(),
            "failure": dict(info),
        }
        payload["integrity"] = payload_integrity(payload)
        atomic_write_json(path, payload)
        if self._index is not None:
            self._index.ingest_failure(
                self.key(cfg), cfg.to_dict(), dict(info),
                version=self.version,
            )
        return path

    def get_failure(self, cfg: RunConfig) -> Optional[Dict[str, object]]:
        """The quarantine record for *cfg*, or None."""
        path = self.failure_path_for(cfg)
        try:
            payload = json.loads(path.read_text())
            if payload.get("config") != cfg.to_dict():
                raise ValueError("stored config does not match request")
            integrity = payload.get("integrity")
            if (integrity is not None
                    and integrity != payload_integrity(payload)):
                raise ValueError("integrity checksum mismatch")
            failure = payload["failure"]
            if not isinstance(failure, dict):
                raise TypeError("failure record is not a dict")
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return failure

    # -- introspection -----------------------------------------------------

    def iter_entries(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, payload)`` for every readable result entry.

        Corrupted/partial files are skipped (they read as misses
        everywhere else too).  Quarantine records are excluded; use
        :meth:`iter_failures`.
        """
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if len(path.parent.name) != 2:
                # Only the 2-hex shard dirs hold result records; skip
                # quarantine/, corrupt/ (scrub's damage bin), service/.
                continue
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and "result" in payload:
                yield path.stem, payload

    def iter_failures(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, payload)`` for every readable quarantine record."""
        qdir = self.root / "quarantine"
        if not qdir.exists():
            return
        for path in sorted(qdir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and "failure" in payload:
                yield path.stem, payload

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        # Quarantine/corrupt records are not results; count only the
        # 2-hex shard dirs.
        return sum(
            1 for p in self.root.glob("*/*.json")
            if len(p.parent.name) == 2
        )

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": len(self),
            "root": str(self.root),
            "version": self.version,
        }
