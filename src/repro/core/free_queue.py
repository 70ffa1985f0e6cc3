"""The circular cache-frame free queue (paper Fig. 5).

Cache frames are managed FIFO: the DC tag miss handler allocates from the
``head`` on demand, and the background eviction daemon reclaims from the
``tail`` proactively.  Frames can be non-free at the head (skipped by the
allocator) because the eviction daemon leaves TLB-resident frames in
place to avoid shootdowns; the paper notes this is rare since TLB
coverage is far below DC capacity.
"""

from __future__ import annotations

from repro.common.inline_state import InlineState
from repro.vm.descriptors import CPDArray


class FreeQueue(InlineState):
    """Head/tail pointers over the CFN space, with a free-frame count."""

    def __init__(self, num_frames: int):
        if num_frames <= 0:
            raise ValueError(f"need at least one cache frame, got {num_frames}")
        self.num_frames = num_frames
        self.head = 0
        self.tail = 0
        self.num_free = num_frames
        self.head_skips = 0  # valid frames stepped over by the allocator

    def allocate(self, cpds: CPDArray) -> int:
        """Find the next free frame from the head (Algorithm 1, lines 2-5).

        Raises ``RuntimeError`` when no frame is free; callers must check
        :attr:`num_free` first (the miss handler waits for the eviction
        daemon in that case).
        """
        if self.num_free <= 0:
            raise RuntimeError("allocate with no free cache frames")
        scanned = 0
        while cpds.valid[self.head]:
            self.head = (self.head + 1) % self.num_frames
            self.head_skips += 1
            scanned += 1
            if scanned > self.num_frames:
                raise RuntimeError("free queue scan wrapped: accounting bug")
        cfn = self.head
        self.head = (self.head + 1) % self.num_frames
        self.num_free -= 1
        return cfn

    def advance_tail(self) -> int:
        """Step the tail pointer past one frame; returns the old tail."""
        old = self.tail
        self.tail = (self.tail + 1) % self.num_frames
        return old

    def mark_freed(self) -> None:
        self.num_free += 1
        if self.num_free > self.num_frames:
            raise RuntimeError("freed more frames than exist")

    @property
    def allocated(self) -> int:
        return self.num_frames - self.num_free
