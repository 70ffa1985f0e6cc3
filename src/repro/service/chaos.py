"""Deterministic fault injection for the distributed campaign service.

PR 3's ``repro.guard.chaos`` proved the engine's invariant checkers by
injecting the exact corruptions they exist to catch.  This module does
the same for the service layer: every fault the broker/runner/client
stack claims to survive is injected here, on a seeded schedule, and the
proof is convergence -- after any schedule, the campaign's result store
must be byte-identical to a serial run's, with zero lost and zero
double-ingested grid slots.

Fault sites
-----------

``client``
    Wired into :meth:`BrokerClient._request` (the ``fault_plan``
    constructor arg): request **drop** (never sent), **delay** /
    **reorder** (held while concurrent requests overtake), **dup**
    (same payload delivered twice -- exercises idempotent enqueue and
    at-most-once complete), **reset** (request delivered, response
    lost -- forces a retry of an already-applied call), and
    **kill_runner** (:class:`ChaosKill` raised at the call site; the
    runner dies mid-protocol and its lease must expire and requeue).

``server``
    Wired into the broker HTTP handler: injected **HTTP 500** before
    the request is processed, and **response truncation** (the body is
    cut short; the client sees a JSON parse error and retries).

``fs``
    Wired into the store's filesystem shim
    (:func:`repro.campaign.store.install_fs`): **ENOSPC** (write
    raises), **torn write** (only a prefix reaches disk), **bit flip**
    (one bit corrupted in flight).  Categories: ``store`` (result and
    quarantine records) and ``meta`` (the journal).

``process``
    Fired by the harness supervisor on observed progress:
    **kill_broker** (the broker is dropped and a fresh one is rebuilt
    purely from its on-disk journal -- the crash-recovery path).

All schedules are seeded (:meth:`FaultPlan.seeded`) and every firing is
recorded, so a failing schedule replays exactly.
"""

from __future__ import annotations

import errno
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.campaign.pool import Backoff
from repro.campaign.store import install_fs

_LOG = obs.get_logger("chaos")

# -- fault kinds -------------------------------------------------------------

CLIENT_DROP = "drop"
CLIENT_DELAY = "delay"
CLIENT_DUP = "dup"
CLIENT_REORDER = "reorder"
CLIENT_RESET = "conn_reset"
KILL_RUNNER = "kill_runner"
SERVER_500 = "http_500"
SERVER_TRUNCATE = "truncate"
FS_ENOSPC = "enospc"
FS_TORN = "torn_write"
FS_BITFLIP = "bit_flip"
KILL_BROKER = "kill_broker"

#: Which injection site each fault kind fires at.
SITE_OF = {
    CLIENT_DROP: "client",
    CLIENT_DELAY: "client",
    CLIENT_DUP: "client",
    CLIENT_REORDER: "client",
    CLIENT_RESET: "client",
    KILL_RUNNER: "client",
    SERVER_500: "server",
    SERVER_TRUNCATE: "server",
    FS_ENOSPC: "fs",
    FS_TORN: "fs",
    FS_BITFLIP: "fs",
    KILL_BROKER: "process",
}

ALL_KINDS = tuple(SITE_OF)
NETWORK_KINDS = (CLIENT_DROP, CLIENT_DELAY, CLIENT_DUP, CLIENT_REORDER,
                 CLIENT_RESET, SERVER_500, SERVER_TRUNCATE)


class ChaosKill(Exception):
    """An injected process death, raised at a protocol call site.

    Deliberately *not* a :class:`BrokerError`: nothing in the retry or
    heartbeat machinery may swallow it -- the runner must actually die.
    """


@dataclass
class FaultSpec:
    """One scheduled fault: *kind* at the *at*-th matching operation.

    ``path`` narrows the match (an endpoint path for client/server
    sites, a category -- ``store``/``meta`` -- for fs, ``broker`` for
    process); empty matches every operation at the site.  ``at`` is
    1-based and compares against the per-(site, path) operation counter
    (for the ``process`` site: against the observed done-batch count).
    ``param`` tunes the fault (delay seconds).  ``fired_at`` records
    the counter value at firing -- ``None`` means still pending.
    """

    kind: str
    path: str = ""
    at: int = 1
    param: float = 0.0
    fired_at: Optional[int] = None

    @property
    def site(self) -> str:
        return SITE_OF[self.kind]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "path": self.path, "at": self.at,
                "param": self.param, "fired_at": self.fired_at}


class FaultPlan:
    """A seeded, thread-safe schedule of one-shot faults.

    Each operation at a site bumps two counters -- (site, path) and
    (site, "") -- and any pending spec whose threshold the matching
    counter has reached fires exactly once.  ``fired`` logs every
    firing in order, so a convergence failure names the exact schedule
    that produced it.
    """

    def __init__(self, specs: Iterable[Union[FaultSpec, dict]] = (),
                 seed: int = 0):
        self.specs: List[FaultSpec] = [
            s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in specs
        ]
        self.seed = seed
        self._counts: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self.fired: List[Tuple[str, str, str, int]] = []

    @classmethod
    def seeded(cls, seed: int, kinds: Sequence[str] = NETWORK_KINDS,
               max_at: int = 5) -> "FaultPlan":
        """One spec per kind, with target path and trigger op drawn
        from ``random.Random(seed)`` -- the deterministic schedule
        generator behind the convergence suite and ``repro chaos``."""
        rng = random.Random(seed)
        client_paths = ["/claim", "/complete", "/heartbeat", "/status"]
        server_paths = ["/claim", "/complete", "/status"]
        specs = []
        for kind in kinds:
            site = SITE_OF[kind]
            if kind == KILL_RUNNER:
                # Die right before reporting a finished batch: the
                # worst client-side moment (work done, not delivered).
                path = "/complete"
            elif site == "client":
                path = rng.choice(client_paths)
            elif site == "server":
                path = rng.choice(server_paths)
            elif site == "fs":
                path = "store"
            else:
                path = "broker"
            specs.append(FaultSpec(kind=kind, path=path,
                                   at=rng.randint(1, max_at)))
        return cls(specs, seed=seed)

    # -- matching ----------------------------------------------------------

    def _match(self, site: str, path: str,
               role: Optional[str] = None) -> List[FaultSpec]:
        with self._lock:
            key = (site, path)
            self._counts[key] = self._counts.get(key, 0) + 1
            n_path = self._counts[key]
            if path:
                skey = (site, "")
                self._counts[skey] = self._counts.get(skey, 0) + 1
                n_site = self._counts[skey]
            else:
                n_site = n_path
            out = []
            for spec in self.specs:
                if spec.site != site or spec.fired_at is not None:
                    continue
                if spec.path and spec.path != path:
                    continue
                if spec.kind == KILL_RUNNER and role != "runner":
                    continue  # never kill the coordinator by accident
                n = n_path if spec.path else n_site
                if n >= spec.at:
                    spec.fired_at = n
                    self.fired.append((spec.kind, site, path, n))
                    out.append(spec)
            return out

    # -- site hooks --------------------------------------------------------

    def client_actions(self, path: str, role: str = "runner") -> dict:
        """Consulted by :meth:`BrokerClient._request` before each send.

        Returns action flags (``drop``/``delay``/``dup``/``reset``);
        a due ``kill_runner`` raises :class:`ChaosKill` instead.
        """
        actions: dict = {}
        for spec in self._match("client", path, role=role):
            if spec.kind == KILL_RUNNER:
                raise ChaosKill(f"chaos: runner killed before {path}")
            if spec.kind == CLIENT_DROP:
                actions["drop"] = True
            elif spec.kind == CLIENT_DELAY:
                actions["delay"] = max(
                    actions.get("delay", 0.0), spec.param or 0.05
                )
            elif spec.kind == CLIENT_REORDER:
                actions["delay"] = max(
                    actions.get("delay", 0.0), spec.param or 0.25
                )
            elif spec.kind == CLIENT_DUP:
                actions["dup"] = True
            elif spec.kind == CLIENT_RESET:
                actions["reset"] = True
        return actions

    def server_actions(self, path: str) -> dict:
        """Consulted by the broker HTTP handler per request."""
        actions: dict = {}
        for spec in self._match("server", path):
            if spec.kind == SERVER_500:
                actions["http_500"] = True
            elif spec.kind == SERVER_TRUNCATE:
                actions["truncate"] = True
        return actions

    def fs_actions(self, category: str) -> List[str]:
        """Consulted by :class:`FaultyFS` per write; returns due kinds."""
        return [spec.kind for spec in self._match("fs", category)]

    def due(self, site: str, path: str, progress: int) -> List[FaultSpec]:
        """Progress-triggered faults (the ``process`` site): fire every
        pending matching spec whose ``at`` the observed *progress*
        (done-batch count) has reached."""
        with self._lock:
            out = []
            for spec in self.specs:
                if spec.site != site or spec.fired_at is not None:
                    continue
                if spec.path and spec.path != path:
                    continue
                if progress >= spec.at:
                    spec.fired_at = progress
                    self.fired.append((spec.kind, site, path, progress))
                    out.append(spec)
            return out

    def outstanding(self) -> List[FaultSpec]:
        return [s for s in self.specs if s.fired_at is None]

    def report(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
            "fired": [list(f) for f in self.fired],
            "outstanding": [s.kind for s in self.outstanding()],
        }


# -- filesystem faults -------------------------------------------------------

class FaultyFS:
    """A :func:`repro.campaign.store.install_fs` shim that injects disk
    faults on a :class:`FaultPlan`'s schedule.

    Writes under ``<root>/service/`` are category ``meta`` (the
    journal); everything else is ``store`` (result + quarantine
    records).  ENOSPC raises from ``write`` (the atomic-write path
    cleans up its temp file and the caller sees ``OSError``); torn
    writes persist only the first half of the payload; bit flips
    corrupt one byte mid-buffer -- both survive to the destination
    file, which is exactly what ``repro scrub`` exists to catch.
    """

    def __init__(self, plan: FaultPlan, real=None):
        from repro.campaign.store import _RealFS

        self.plan = plan
        self.real = real or _RealFS()
        self.injected: List[Tuple[str, str]] = []

    @staticmethod
    def _category(path: Optional[Path]) -> str:
        if path is not None and "service" in Path(path).parts:
            return "meta"
        return "store"

    def write(self, fh, data: bytes, path: Optional[Path] = None) -> int:
        category = self._category(path)
        for kind in self.plan.fs_actions(category):
            self.injected.append((kind, str(path)))
            if kind == FS_ENOSPC:
                raise OSError(errno.ENOSPC, "chaos: no space left on device")
            if kind == FS_TORN:
                data = data[: max(1, len(data) // 2)]
            elif kind == FS_BITFLIP:
                mid = len(data) // 2
                data = data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]
        return self.real.write(fh, data, path=path)

    def fsync(self, fileno: int) -> None:
        self.real.fsync(fileno)

    def replace(self, src, dst) -> None:
        self.real.replace(src, dst)

    def fsync_dir(self, path: Path) -> None:
        self.real.fsync_dir(path)


@contextmanager
def faulty_fs(plan: FaultPlan):
    """Route every store and journal write through a
    :class:`FaultyFS` for the duration of the block."""
    fs = FaultyFS(plan)
    prev = install_fs(fs)
    try:
        yield fs
    finally:
        install_fs(prev)


# -- store comparison --------------------------------------------------------

def store_file_map(root: Union[str, Path]) -> Dict[str, bytes]:
    """``relative-path -> raw bytes`` for every record in a store.

    Covers result shards (``xx/<key>.json``) and quarantine records;
    excludes service metadata, the index, traces, and scrub output --
    convergence is about the *data*, not the bookkeeping.
    """
    root = Path(root)
    out: Dict[str, bytes] = {}
    if not root.exists():
        return out
    for path in sorted(root.glob("*/*.json")):
        parent = path.parent.name
        if len(parent) == 2 or parent == "quarantine":
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def stores_identical(a: Union[str, Path],
                     b: Union[str, Path]) -> Tuple[bool, List[str]]:
    """Byte-compare two stores; returns ``(identical, differences)``."""
    ma, mb = store_file_map(a), store_file_map(b)
    diffs = []
    for rel in sorted(set(ma) | set(mb)):
        if rel not in ma:
            diffs.append(f"only in {b}: {rel}")
        elif rel not in mb:
            diffs.append(f"only in {a}: {rel}")
        elif ma[rel] != mb[rel]:
            diffs.append(f"bytes differ: {rel}")
    return not diffs, diffs


# -- in-process chaos harness ------------------------------------------------

def run_chaos_campaign(
    configs,
    store_root: Union[str, Path],
    plan: Optional[FaultPlan] = None,
    runners: int = 2,
    jobs: int = 1,
    lease_s: float = 3.0,
    poll_s: float = 0.05,
    max_wait_s: float = 180.0,
    campaign_id: Optional[str] = None,
):
    """Drive *configs* through a faulted broker + runner fleet.

    Everything runs in one process -- broker behind a real HTTP server,
    runners as threads with fault-wired clients, the coordinator via
    the normal :func:`run_distributed_campaign` path -- so schedules
    are fast and fully deterministic.  Two fault classes get special
    machinery from a supervisor thread:

    * ``kill_broker``: the HTTP server is torn down and the broker
      object *discarded*; a brand-new broker is built from nothing but
      the on-disk journal and rebound to the same port.  From the
      journal's point of view this is indistinguishable from SIGKILL
      (per-append fsync means there is nothing in memory worth
      flushing), and runners/coordinator must ride out the outage on
      their retry loops.
    * ``kill_runner``: :class:`ChaosKill` kills the runner thread at a
      protocol call site; the supervisor respawns a replacement and the
      dead runner's lease expires and requeues.

    Returns ``(CampaignResult, report_dict)``.
    """
    from repro.campaign.store import ResultStore
    from repro.service.broker import Broker, BrokerServer
    from repro.service.coordinator import run_distributed_campaign
    from repro.service.protocol import BrokerClient
    from repro.service.runner import runner_loop

    store_root = Path(store_root)
    fault_plan = plan if plan is not None else FaultPlan([])
    backoff = Backoff(base=0.05, cap=0.4)

    state: dict = {"broker": None, "server": None, "port": 0,
                   "restarts": 0, "kills": 0}
    state_lock = threading.Lock()
    stop = threading.Event()

    def start_broker() -> None:
        broker = Broker(store_root, lease_s=lease_s)
        server = BrokerServer(
            broker, port=state["port"], fault_plan=fault_plan
        ).start()
        with state_lock:
            state["broker"], state["server"] = broker, server
            state["port"] = server.port

    start_broker()
    url = state["server"].url

    def make_client(role: str) -> BrokerClient:
        return BrokerClient(
            url, timeout=15.0, backoff=backoff, max_tries=10,
            fault_plan=fault_plan, fault_role=role,
        )

    threads: Dict[int, threading.Thread] = {}
    spawned = [0]

    def runner_main(idx: int, generation: int) -> None:
        rid = f"chaos-r{idx}g{generation}"
        try:
            runner_loop(
                url, jobs=jobs, runner_id=rid, poll_s=poll_s,
                client=make_client("runner"), stop=stop,
                give_up_after_s=None, install_signal_handlers=False,
            )
        except ChaosKill:
            with state_lock:
                state["kills"] += 1
            _LOG.warning("chaos.runner_killed", runner_id=rid)

    def spawn_runner(idx: int) -> None:
        spawned[0] += 1
        t = threading.Thread(
            target=runner_main, args=(idx, spawned[0]),
            name=f"chaos-runner-{idx}", daemon=True,
        )
        t.start()
        threads[idx] = t

    def supervise() -> None:
        while not stop.wait(0.05):
            broker = state["broker"]
            with broker._lock:
                done = sum(
                    1 for c in broker._campaigns.values()
                    for b in c.batches.values() if b.state == "done"
                )
            for spec in fault_plan.due("process", "broker", done):
                if spec.kind != KILL_BROKER:
                    continue
                old_server, old_broker = state["server"], state["broker"]
                old_server.shutdown()
                old_broker.journal.close()
                with state_lock:
                    state["restarts"] += 1
                _LOG.warning(
                    "chaos.broker_restart", restarts=state["restarts"],
                    done_batches=done,
                )
                start_broker()
            for idx, t in list(threads.items()):
                if not t.is_alive():
                    spawn_runner(idx)

    for i in range(max(1, runners)):
        spawn_runner(i)
    supervisor = threading.Thread(
        target=supervise, name="chaos-supervisor", daemon=True
    )
    supervisor.start()

    try:
        result = run_distributed_campaign(
            list(configs), url, ResultStore(store_root),
            campaign_id=campaign_id or f"chaos-{fault_plan.seed}",
            jobs=max(1, runners), poll_s=poll_s, max_wait_s=max_wait_s,
            client=make_client("coordinator"),
        )
    finally:
        stop.set()
        supervisor.join(timeout=10)
        for t in threads.values():
            t.join(timeout=10)
        state["server"].shutdown()
        state["broker"].journal.close()

    broker = state["broker"]
    duplicates = sum(
        c.duplicate_completes for c in broker._campaigns.values()
    )
    report = {
        "plan": fault_plan.report(),
        "broker_restarts": state["restarts"],
        "runner_kills": state["kills"],
        "requeues": broker.requeues,
        "duplicate_completes": duplicates,
        "journal": broker.journal.stats(),
    }
    return result, report
