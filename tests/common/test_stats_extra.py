"""Percentile edges of the power-of-two latency histogram."""

from repro.common.stats import percentile
from repro.schemes.baseline import BaselineScheme


def test_percentile_empty():
    assert percentile({}, 50) == 0


def test_percentile_single_value():
    buckets = {32: 1}  # one sample of 42 cycles
    assert percentile(buckets, 0) == 32
    assert percentile(buckets, 100) == 32


def test_percentile_monotone():
    # Samples 1, 2, 4, 8, 16, 300, 5000.
    buckets = {1: 1, 2: 1, 4: 1, 8: 1, 16: 1, 256: 1, 4096: 1}
    ps = [percentile(buckets, p) for p in (10, 50, 90, 99)]
    assert ps == sorted(ps)


def test_power_of_two_bucket_bounds(sim, tiny_cfg):
    scheme = BaselineScheme(sim, tiny_cfg)
    scheme._record_dc_access(0, 1023)
    scheme._record_dc_access(0, 1024)
    assert scheme._dc_times.buckets == {512: 1, 1024: 1}
