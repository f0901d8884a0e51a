"""The metrics registry: instruments, snapshots and merge.

The load-bearing property is *exact cross-process merge*: counters and
histogram bucket counts are plain ints, worker deltas fold into the
parent by integer addition, and the folded totals equal the sum — no
float drift, ever.  Proven here both in-process and across a real
ProcessPoolExecutor.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    snapshot_summary,
)


def fresh() -> MetricsRegistry:
    return MetricsRegistry(recording=True)


# ------------------------------------------------------------ counters
def test_counter_inc_and_labels():
    registry = fresh()
    family = registry.counter("hits_total", "hits")
    family.inc()
    family.inc(4)
    assert family.value == 5
    family.labels(kind="a").inc(2)
    family.labels(kind="b").inc(3)
    assert family.labels(kind="a").value == 2
    assert family.labels(kind="b").value == 3
    # The unlabeled child is distinct from every labeled one.
    assert family.value == 5


def test_counter_rejects_negative():
    registry = fresh()
    with pytest.raises(ValueError, match="cannot decrease"):
        registry.counter("c_total").inc(-1)


def test_registering_same_name_returns_same_family():
    registry = fresh()
    assert registry.counter("x_total") is registry.counter("x_total")
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("x_total")


# ---------------------------------------------------------- histograms
def test_histogram_bucket_edges_are_le():
    registry = fresh()
    hist = registry.histogram("h", buckets=(1.0, 2.0)).labels()
    for value in (0.5, 1.0, 1.5, 2.0, 99.0):
        hist.observe(value)
    # le-semantics: 1.0 lands in the first bucket, 2.0 in the second.
    assert hist.bucket_counts == [2, 2, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 99.0)


def test_histogram_percentiles_monotone():
    registry = fresh()
    hist = registry.histogram("lat", buckets=LATENCY_BUCKETS).labels()
    for _ in range(90):
        hist.observe(0.003)
    for _ in range(10):
        hist.observe(0.2)
    p = hist.percentiles()
    assert p["count"] == 100
    assert 0.0 < p["p50"] <= 0.005
    assert p["p50"] <= p["p95"] <= p["p99"]
    assert p["p95"] > 0.05      # the slow tail dominates p95 upward


def test_empty_histogram_percentiles_are_zero():
    registry = fresh()
    p = registry.histogram("h").labels().percentiles()
    assert p == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                 "p99": 0.0}


# ------------------------------------------------------- recording off
def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(recording=False)
    counter = registry.counter("c_total")
    hist = registry.histogram("h").labels()
    counter.inc(5)
    hist.observe(1.0)
    assert counter.value == 0
    assert hist.count == 0


def test_env_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "0")
    assert MetricsRegistry().recording is False
    monkeypatch.setenv("REPRO_METRICS", "1")
    assert MetricsRegistry().recording is True
    monkeypatch.delenv("REPRO_METRICS")
    assert MetricsRegistry().recording is True


# ----------------------------------------------------- snapshot / merge
def _bump(registry: MetricsRegistry) -> None:
    registry.counter("ops_total").labels(op="a").inc(3)
    registry.counter("ops_total").labels(op="b").inc(1)
    hist = registry.histogram("lat", buckets=(0.01, 0.1))
    hist.observe(0.005)
    hist.observe(0.05)
    hist.observe(5.0)


def test_snapshot_is_json_roundtrippable():
    registry = fresh()
    _bump(registry)
    snap = json.loads(json.dumps(registry.snapshot()))
    other = fresh()
    other.merge(snap)
    assert other.snapshot() == registry.snapshot()


def test_merge_adds_counters_and_buckets_exactly():
    parent = fresh()
    _bump(parent)
    child = fresh()
    _bump(child)
    _bump(child)
    parent.merge(child.snapshot())
    assert parent.counter("ops_total").labels(op="a").value == 9
    assert parent.counter("ops_total").labels(op="b").value == 3
    hist = parent.histogram("lat").labels()
    assert hist.bucket_counts == [3, 3, 3]
    assert hist.count == 9


def test_merge_rejects_mismatched_bounds():
    parent = fresh()
    parent.histogram("lat", buckets=(0.01, 0.1)).observe(0.05)
    bad = fresh()
    bad.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
    with pytest.raises(ValueError, match="bounds"):
        parent.merge(bad.snapshot())


def test_snapshot_and_reset_yields_deltas():
    registry = fresh()
    _bump(registry)
    first = registry.snapshot_and_reset()
    assert first["families"]["ops_total"]["children"]
    # After the reset the next frame is empty: folding both frames
    # into a parent counts everything exactly once.
    _bump(registry)
    second = registry.snapshot_and_reset()
    parent = fresh()
    parent.merge(first)
    parent.merge(second)
    assert parent.counter("ops_total").labels(op="a").value == 6


# ------------------------------------------------------------- summary
def test_snapshot_summary_compacts_histograms():
    registry = fresh()
    _bump(registry)
    summary = snapshot_summary(registry.snapshot())
    assert summary["ops_total"] == {'op="a"': 3, 'op="b"': 1}
    assert summary["lat"]["_"]["count"] == 3


# ------------------------------------------------- cross-process merge
def _worker_frame(worker: int, rounds: int) -> dict:
    """One worker's delta frame (module-level: must pickle)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry(recording=True)
    ops = registry.counter("w_ops_total")
    lat = registry.histogram("w_lat", buckets=(0.001, 0.01, 0.1))
    for i in range(rounds):
        ops.labels(worker=str(worker % 2)).inc(i + 1)
        lat.observe(0.0005 * (1 + (worker + i) % 400))
    return registry.snapshot_and_reset()


def test_cross_process_merge_is_exact():
    """N real pool workers bump labeled counters/histograms; the
    folded totals equal the arithmetic sum and bucket counts are
    exact ints."""
    workers, rounds = 6, 50
    with ProcessPoolExecutor(max_workers=3) as pool:
        frames = list(pool.map(_worker_frame, range(workers),
                               [rounds] * workers))
    parent = fresh()
    for frame in frames:
        parent.merge(frame)
    per_worker = rounds * (rounds + 1) // 2
    total = parent.counter("w_ops_total")
    assert total.labels(worker="0").value == 3 * per_worker
    assert total.labels(worker="1").value == 3 * per_worker
    hist = parent.histogram("w_lat").labels()
    assert hist.count == workers * rounds
    assert sum(hist.bucket_counts) == workers * rounds
    assert all(isinstance(n, int) for n in hist.bucket_counts)
    # The folded buckets equal the element-wise sum of the frames.
    by_bucket = [0] * len(hist.bucket_counts)
    for frame in frames:
        child = frame["families"]["w_lat"]["children"][""]
        for i, n in enumerate(child["bucket_counts"]):
            by_bucket[i] += n
    assert hist.bucket_counts == by_bucket
