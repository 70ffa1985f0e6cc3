"""Machine snapshot/fork support for amortized sweeps.

The unit of real work in this repository is the *campaign*: a figure
reproduction runs the same (workload, scheme shape) dozens of times with
only ROI-side knobs varying (seed, trace length).  Every one of those
runs used to pay the full machine build and prewarm fast-forward again.
gem5's checkpoint-and-restore methodology -- simulate the common prefix
once, fork the divergent suffixes -- maps directly onto this simulator
because the build+prewarm boundary is *quiescent*: prewarm is functional
(no events), so a just-built machine has an empty event queue and can be
pickled without capturing any scheduled closure.

Two facts make the snapshot reusable across a whole sweep axis:

* ``warm_plan(spec, share)`` depends only on the workload's footprint /
  page-selection shape, **not** on the seed, so post-prewarm machine
  state is seed-independent;
* traces are attached as unconsumed iterators and materialized per
  (spec, seed, core) on demand, so neither ``seed`` nor ``num_mem_ops``
  is baked into the snapshot -- :func:`snapshot_key` therefore excludes
  both, and one snapshot serves every seed and every ROI length.

:class:`SnapshotCache` is the bounded in-process blob store the runner
and every campaign pool worker keep; ``repro.harness.runner`` owns the
policy of when to consult and when to prime it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, Optional

from repro.common.stats import CacheTally

# Bump whenever the pickled machine layout changes incompatibly (new
# component state, changed __reduce__ forms, ...).  Machine.restore
# refuses blobs stamped with any other version.
SNAPSHOT_VERSION = 4

# RunConfig fields that only affect the ROI (the run itself), not the
# built+prewarmed machine state.  Everything else is build-affecting and
# goes into the snapshot key.
ROI_FIELDS = ("seed", "num_mem_ops")


class SnapshotError(RuntimeError):
    """A snapshot could not be taken or restored."""


def snapshot_key(cfg) -> str:
    """The build-affecting prefix of ``RunConfig.to_dict()`` as a stable
    string key.

    Two configs with equal keys build bit-identical machines up to the
    prewarm boundary, so either can fork the other's snapshot.
    """
    d = cfg.to_dict()
    for name in ROI_FIELDS:
        d.pop(name, None)
    return json.dumps(d, sort_keys=True)


# Schemes whose build is cheaper than a snapshot round-trip: baseline
# has no DRAM cache to warm, and ideal's "infinite" PCSHR file is 64 K
# objects that unpickle slower than they construct.
_FORK_UNPROFITABLE = frozenset({"baseline", "ideal"})


def snapshot_eligible(cfg) -> bool:
    """Whether forking can pay off for *cfg*.

    Unwarmed machines and the :data:`_FORK_UNPROFITABLE` schemes build
    in less time than the pickle round-trip would save.
    """
    return cfg.prewarm and cfg.scheme not in _FORK_UNPROFITABLE


class SnapshotCache:
    """Bounded LRU of ``snapshot_key -> snapshot blob`` with counters.

    ``maxsize=0`` disables the cache (get/put become no-ops), so every
    run builds, as before snapshots existed.
    Blobs are a couple of MB each, so the default bound is small.
    """

    def __init__(self, maxsize: int = 8):
        self.maxsize = maxsize
        self._data: "OrderedDict[str, bytes]" = OrderedDict()
        self.counts = CacheTally("hits", "misses", "stores", "evictions")

    def get(self, key: str) -> Optional[bytes]:
        if self.maxsize <= 0:
            return None
        blob = self._data.get(key)
        if blob is None:
            self.counts.add("misses")
            return None
        self._data.move_to_end(key)
        self.counts.add("hits")
        return blob

    def put(self, key: str, blob: bytes) -> None:
        if self.maxsize <= 0:
            return
        self._data[key] = blob
        self._data.move_to_end(key)
        self.counts.add("stores")
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.counts.add("evictions")

    def clear(self) -> None:
        self._data.clear()
        self.counts.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            **self.counts.total,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "bytes": sum(len(b) for b in self._data.values()),
        }
