"""Forked machines keep CPython's inline instance attributes.

On CPython 3.11 and 3.12 an object stores its attributes inline until
something asks for its ``__dict__``; from then on it owns a real dict and
every attribute access takes a slower path.  ``gc.get_referents(obj)``
shows which: the attribute values while they are inline, one ``dict``
once it is materialized.  The walk below only ever calls
``gc.get_referents``, so it never materializes a dict itself.

A machine forked by ``Machine.restore`` must come back with every
component's attributes inline (``repro.common.inline_state``), and so
must a fresh build.  No class is exempt: one with more attributes than
CPython keeps inline (29 on 3.11) has a materialized dict from birth,
so the hot classes keep their attribute counts under that limit.
"""

import collections
import enum
import gc
import sys
import types

import pytest

from repro.config.schemes import BackendTopology, NomadConfig
from repro.config.system import scaled_system
from repro.system.builder import build_machine
from repro.system.machine import Machine

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="inline attribute values are 3.11+"
)

MACHINES = ("nomad", "nomad-distributed", "tdc", "tid")

# Every dict-backed class in the graph of those machines when built or
# restored: the classes InlineState has to cover.  A new class in the
# machine graph shows up here first.
COVERED = {
    "repro.cache.hierarchy.CacheHierarchy",
    "repro.cache.mshr.MSHRFile",
    "repro.cache.sram_cache.SRAMCache",
    "repro.config.dram.DRAMTimingConfig",
    "repro.config.schemes.NomadConfig",
    "repro.config.schemes.TDCConfig",
    "repro.config.schemes.TiDConfig",
    "repro.config.system.CacheConfig",
    "repro.config.system.CoreConfig",
    "repro.config.system.SystemConfig",
    "repro.config.system.TLBConfig",
    "repro.core.backend.Backend",
    "repro.core.distributed.DistributedBackend",
    "repro.core.free_queue.FreeQueue",
    "repro.core.frontend.FrontEnd",
    "repro.core.nomad.NomadScheme",
    "repro.core.page_copy_buffer.PageCopyBufferPool",
    "repro.core.pcshr.PCSHR",
    "repro.cpu.core.Core",
    "repro.dram.controller.ChannelController",
    "repro.dram.device.DRAMDevice",
    "repro.dram.timing.ResolvedTiming",
    "repro.engine.event_queue.EventQueue",
    "repro.engine.simulator.Simulator",
    "repro.engine.sync.Mutex",
    "repro.schemes.tdc.BlockingCopyManager",
    "repro.schemes.tdc.TDCScheme",
    "repro.schemes.tid.TiDScheme",
    "repro.schemes.tid.TiDTagArray",
    "repro.system.machine.Machine",
    "repro.vm.descriptors.CPDArray",
    "repro.vm.descriptors.DescriptorTables",
    "repro.vm.page_table.PageTable",
    "repro.vm.tlb.TLB",
    "repro.vm.walker.PageWalker",
    "repro.workloads.synthetic.WorkloadSpec",
}

_CONTAINERS = (list, tuple, dict, set, frozenset, collections.deque)
_OPAQUE = (types.FunctionType, types.BuiltinFunctionType, types.ModuleType,
           type, enum.Enum)


def _dict_materialized(obj) -> bool:
    refs = [r for r in gc.get_referents(obj) if r is not type(obj)]
    return (len(refs) == 1 and type(refs[0]) is dict
            and all(type(k) is str for k in refs[0]))


def _walk(root):
    """``{class name: [objects]}`` for every dict-backed repro object
    reachable from *root* through containers and bound methods."""
    found = collections.defaultdict(list)
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
            continue
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            if cls.__dictoffset__:
                found[f"{cls.__module__}.{cls.__qualname__}"].append(obj)
            stack.extend(gc.get_referents(obj))
        elif isinstance(obj, _CONTAINERS):
            stack.extend(gc.get_referents(obj))
    return found


def _build(name):
    """A fresh machine; no object of its graph is shared with another
    build (pickling one would materialize the shared object's dict)."""
    nomad_cfg = None
    if name == "nomad-distributed":
        nomad_cfg = NomadConfig(topology=BackendTopology.DISTRIBUTED)
    return build_machine(
        name.split("-")[0], workload_name="cact",
        cfg=scaled_system(num_cores=2, dc_megabytes=8),
        num_mem_ops=300, seed=1, nomad_cfg=nomad_cfg,
    )


def _slow(found):
    """Class names of the objects in *found* with a materialized dict."""
    return sorted(
        name for name, objs in found.items()
        for obj in objs
        if _dict_materialized(obj)
    )


@pytest.fixture(scope="module")
def walks():
    """Per machine: the fresh build's walk, and the fork's walks before
    and after its run."""
    out = {}
    for name in MACHINES:
        fresh = _walk(_build(name))
        fork = Machine.restore(_build(name).snapshot())
        restored = _walk(fork)
        fork.run()
        out[name] = (fresh, restored, _walk(fork))
    return out


def test_walk_finds_every_covered_class(walks):
    names = set()
    for fresh, restored, _after_run in walks.values():
        names |= set(fresh) | set(restored)
    assert names == COVERED


@pytest.mark.parametrize("name", MACHINES)
def test_forks_keep_inline_attributes(walks, name):
    _fresh, restored, after_run = walks[name]
    assert _slow(restored) == []
    assert _slow(after_run) == []


@pytest.mark.parametrize("name", MACHINES)
def test_fresh_builds_keep_inline_attributes(walks, name):
    fresh, _restored, _after_run = walks[name]
    assert _slow(fresh) == []
