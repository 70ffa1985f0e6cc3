"""Statistics helpers: running means, the DC access-time histogram, and
the report keys they render."""

import pytest

from repro.common.stats import Mean, histogram_stats, mean_stats, percentile
from repro.schemes.baseline import BaselineScheme


def _dc_buckets(sim, cfg, samples):
    """The power-of-two histogram a scheme records for DC access times
    of *samples* cycles."""
    scheme = BaselineScheme(sim, cfg)
    for latency in samples:
        scheme._record_dc_access(0, latency)
    return scheme._dc_times.buckets


def test_running_mean_empty():
    m = Mean()
    assert m.mean == 0.0
    assert m.count == 0 and m.max is None


def test_running_mean_tracks_max():
    m = Mean()
    for v in (5, 1, 9):
        m.add(v)
    assert m.mean == 5.0
    assert m.max == 9
    assert m.count == 3
    assert m.total == 15


def test_histogram_power_of_two_buckets(sim, tiny_cfg):
    assert _dc_buckets(sim, tiny_cfg, (1, 3, 5)) == {1: 1, 2: 1, 4: 1}


def test_histogram_mean_and_percentile(sim, tiny_cfg):
    scheme = BaselineScheme(sim, tiny_cfg)
    for v in range(1, 101):
        scheme._record_dc_access(0, v)
    metrics = scheme.metrics()
    assert metrics["dc_access_time_hist.mean"] == pytest.approx(50.5)
    assert metrics["dc_access_time.mean"] == pytest.approx(50.5)
    assert metrics["dc_reads"] == 100
    # 1..100 fill buckets 1, 2, 4, ..., 32 (63 samples) and 64 (37).
    assert scheme.dc_access_time_percentile(50) == 32
    assert scheme.dc_access_time_percentile(100) == 64


def test_histogram_zero_sample(sim, tiny_cfg):
    assert _dc_buckets(sim, tiny_cfg, (0,)) == {0: 1}


def test_histogram_percentile_empty():
    assert percentile({}, 95) == 0


def test_histogram_percentile_single_bucket(sim, tiny_cfg):
    buckets = _dc_buckets(sim, tiny_cfg, (12,) * 5)
    assert percentile(buckets, 50) == 8
    assert percentile(buckets, 99) == 8


def test_histogram_percentiles_are_monotonic(sim, tiny_cfg):
    buckets = _dc_buckets(sim, tiny_cfg, range(1, 1001))
    p50, p95, p99 = (percentile(buckets, p) for p in (50, 95, 99))
    assert p50 <= p95 <= p99
    # 511 samples sit below 512, the other 489 in bucket 512.
    assert (p50, p95, p99) == (256, 512, 512)


def test_mean_stats_keys():
    assert mean_stats("lat", 2, 30, 20) == {
        "lat.mean": 15.0, "lat.count": 2, "lat.max": 20,
    }
    assert mean_stats("lat", 0, 0, None) == {
        "lat.mean": 0.0, "lat.count": 0, "lat.max": None,
    }


def test_histogram_stats_keys():
    buckets = {1: 1, 2: 2, 4: 4, 8: 8, 16: 16, 32: 32, 64: 37}
    d = histogram_stats("lat", buckets, 5050)
    assert d["lat.count"] == 100
    assert d["lat.mean"] == pytest.approx(50.5)
    assert d["lat.p50"] == percentile(buckets, 50)
    assert d["lat.p95"] == percentile(buckets, 95)
    assert d["lat.p99"] == percentile(buckets, 99)
    assert d["lat.p50"] <= d["lat.p95"] <= d["lat.p99"]
    assert list(d) == ["lat.mean", "lat.count", "lat.p50", "lat.p95",
                       "lat.p99"]
