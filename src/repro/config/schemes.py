"""Per-scheme configuration knobs.

These map one-to-one onto the design parameters the paper sweeps:
PCSHR count (Fig. 12-14), page-copy-buffer count for the area-optimized
design (Fig. 15), and centralized vs distributed back-ends (Fig. 16).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields

from repro.common.inline_state import InlineState


class BackendTopology(enum.Enum):
    """Fig. 8: one back-end for the whole DC, or one per HBM channel."""

    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"


class ConfigSerializable(InlineState):
    """Stable dict round-trip for the frozen config dataclasses.

    ``to_dict`` output is JSON-compatible (enums become their values) and
    keyed by field name, so it doubles as the content-hash input for the
    campaign result store; ``from_dict`` rejects unknown keys so a stale
    or corrupted payload can never silently half-apply.
    """

    _ENUM_FIELDS: dict = {}

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in self._ENUM_FIELDS:
            if d.get(name) is not None:
                d[name] = d[name].value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigSerializable":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"{cls.__name__}.from_dict: unknown keys {sorted(unknown)}"
            )
        kwargs = dict(d)
        for name, enum_cls in cls._ENUM_FIELDS.items():
            if kwargs.get(name) is not None and not isinstance(kwargs[name], enum_cls):
                kwargs[name] = enum_cls(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class NomadConfig(ConfigSerializable):
    """NOMAD front-end + back-end parameters (Sections III-C/D)."""

    _ENUM_FIELDS = {"topology": BackendTopology}

    num_pcshrs: int = 16
    # Page copy buffers; None means one per PCSHR (the default design).
    num_copy_buffers: int = None  # type: ignore[assignment]
    sub_entries_per_pcshr: int = 4
    topology: BackendTopology = BackendTopology.CENTRALIZED
    # Base critical-section cost of the DC tag miss handler (paper: two
    # serialized on-package DRAM reads + sync overhead ~= 400 cycles).
    tag_mgmt_latency: int = 400
    # Background eviction: start evicting when free frames drop below the
    # threshold; evict `eviction_batch` frames per invocation (power of 2).
    eviction_threshold_frames: int = 512
    eviction_batch: int = 64
    # Per-victim bookkeeping cost inside the eviction critical section
    # (CPD read, reverse-map walk, PTE restore).
    eviction_cost_per_frame: int = 25
    # PCSHR tag-compare delay on the DC access path (paper: 0.21 CPU
    # cycles via CACTI; we charge the conservative 1 cycle it also tests).
    pcshr_lookup_latency: int = 1
    # Latency to service a data miss from the page copy buffer.
    copy_buffer_latency: int = 10
    critical_data_first: bool = True
    serve_from_copy_buffer: bool = True
    # The frame-management critical section (Algorithms 1-2).  Disabled
    # only by the Ideal upper bound.
    frontend_mutex: bool = True
    # Dirty-in-cache (DC) bits in CPDs/PTEs (Fig. 4).  Disabling them is
    # an ablation: every eviction then costs a full-page writeback.
    dirty_in_cache_bits: bool = True

    def resolved_copy_buffers(self) -> int:
        return self.num_copy_buffers if self.num_copy_buffers is not None else self.num_pcshrs


@dataclass(frozen=True)
class TDCConfig(ConfigSerializable):
    """Blocking OS-managed scheme (tagless DRAM cache).

    TDC locks only the critical PTEs, so there is no global-mutex
    contention; the tag cost is flat and the thread then blocks for the
    whole page copy (Section IV-A).
    """

    tag_mgmt_latency: int = 400
    eviction_threshold_frames: int = 512
    eviction_batch: int = 64
    eviction_cost_per_frame: int = 25
    # TDC performs page copies in parallel across cores (per-PTE locks);
    # each copy occupies the issuing thread until completion.
    max_parallel_copies: int = 64
    # The paper's TDC is given dirty-in-cache bits "to disregard the
    # effects of other efficiencies"; disable for the ablation.
    dirty_in_cache_bits: bool = True


@dataclass(frozen=True)
class TiDConfig(ConfigSerializable):
    """HW-based tags-in-DRAM scheme (Unison-style, Section IV-A).

    1 KB cache lines in a 4-way set-associative organization with an
    ideal way predictor; tags live in HBM, so every DC access pays a
    metadata burst, and metadata updates consume further bandwidth.
    """

    line_size: int = 1024
    ways: int = 4
    mshrs: int = 32
    # Bursts of metadata traffic per access: one 64 B tag read per lookup
    # (ideal way prediction folds the set's tags into one burst), one 64 B
    # write when dirty/LRU bits change.
    tag_read_bursts: int = 1
    tag_update_bursts: int = 1

    @property
    def sub_blocks_per_line(self) -> int:
        return self.line_size // 64
