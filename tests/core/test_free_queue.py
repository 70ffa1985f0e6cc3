"""Circular FIFO cache-frame queue (Fig. 5)."""

import pytest

from repro.core.free_queue import FreeQueue
from repro.vm.descriptors import CPDArray


def test_allocates_sequentially():
    fq, cpds = FreeQueue(8), CPDArray(8)
    got = []
    for _ in range(3):
        cfn = fq.allocate(cpds)
        cpds.valid[cfn] = 1
        got.append(cfn)
    assert got == [0, 1, 2]
    assert fq.num_free == 5
    assert fq.allocated == 3


def test_skips_valid_frames_at_head():
    fq, cpds = FreeQueue(8), CPDArray(8)
    cpds.valid[0] = 1  # TLB-shootdown-avoidance leftover
    fq.num_free -= 1
    cfn = fq.allocate(cpds)
    assert cfn == 1
    assert fq.head_skips == 1


def test_allocate_exhausted_raises():
    fq, cpds = FreeQueue(2), CPDArray(2)
    for _ in range(2):
        cpds.valid[fq.allocate(cpds)] = 1
    with pytest.raises(RuntimeError):
        fq.allocate(cpds)


def test_wraps_around():
    fq, cpds = FreeQueue(4), CPDArray(4)
    for _ in range(4):
        cpds.valid[fq.allocate(cpds)] = 1
    # Free the tail frame, allocate again: head wraps to it.
    victim = fq.advance_tail()
    cpds.valid[victim] = 0
    fq.mark_freed()
    assert fq.allocate(cpds) == victim


def test_mark_freed_overflow_guarded():
    fq = FreeQueue(2)
    with pytest.raises(RuntimeError):
        fq.mark_freed()


def test_advance_tail_returns_old():
    fq = FreeQueue(4)
    assert fq.advance_tail() == 0
    assert fq.advance_tail() == 1
    assert fq.tail == 2


def test_zero_frames_rejected():
    with pytest.raises(ValueError):
        FreeQueue(0)
