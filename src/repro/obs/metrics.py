"""Runtime metrics registry: the always-on numeric layer.

:mod:`repro.obs.trace` records *events* (spans with start/stop
timestamps — expensive, opt-in, one trace per run).  This module is
the complementary *counter* layer of the span/counter split in
distributed-tracing practice: monotonic counters and fixed-bucket
histograms cheap enough to leave enabled on every run,
dependency-free, and mergeable across processes.

Design constraints, in order:

* **Zero observable effect on results.**  The registry only ever
  *observes*; nothing in the compiler or simulator reads it back, so
  cycles, interlocks and cache keys are bit-identical with recording
  on or off (tested).  The hot simulation loops are never touched —
  engine counters are folded in *after* a run finishes.
* **Cheap enough to leave on.**  A disabled registry costs one
  attribute test per instrument call; an enabled counter bump is one
  dict ``get`` + add.  Histograms use precomputed bucket bounds and a
  linear scan (the bucket lists are short).
* **Exact, mergeable state.**  Counters and histogram bucket counts
  are plain ints (no float drift when merging); merging two snapshots
  is element-wise integer/float addition.  Each pool worker snapshots
  its registry into the result frame and the parent folds the deltas
  into a global registry — folded totals equal the sum by
  construction (tested across real processes).

Naming follows Prometheus conventions (``snake_case``, ``_total``
suffix on counters, ``_seconds`` on latency histograms).
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from typing import Optional, Sequence

#: Snapshot schema version (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = 1

#: Default histogram buckets for wall-clock latencies in seconds.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Default buckets for simulated-instructions-per-second throughput.
IPS_BUCKETS: tuple[float, ...] = (
    1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8)


def _label_key(labels: dict) -> str:
    """Canonical string for one label set (sorted, JSON-escaped)."""
    if not labels:
        return ""
    return ",".join(f"{k}={json.dumps(str(v))}"
                    for k, v in sorted(labels.items()))


def _parse_label_key(key: str) -> dict:
    if not key:
        return {}
    out = {}
    for part in key.split(","):
        name, _, value = part.partition("=")
        out[name] = json.loads(value)
    return out


class Counter:
    """One monotonic counter child (a single label set)."""

    __slots__ = ("_family", "_key", "value")

    def __init__(self, family: "Family", key: str) -> None:
        self._family = family
        self._key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if self._family.registry.recording:
            if amount < 0:
                raise ValueError(
                    f"counter {self._family.name} cannot decrease "
                    f"(inc({amount}))")
            self.value += amount


class Histogram:
    """Fixed-bucket histogram child with exact integer bucket counts.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative, per-bucket); the final implicit ``+Inf`` bucket is
    ``bucket_counts[-1]``.  ``sum``/``count`` are exact (``count`` an
    int; ``sum`` a float accumulated once per observation).
    """

    __slots__ = ("_family", "_key", "bounds", "bucket_counts", "sum",
                 "count")

    def __init__(self, family: "Family", key: str,
                 bounds: Sequence[float]) -> None:
        self._family = family
        self._key = key
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if self._family.registry.recording:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    # ------------------------------------------------------- quantiles
    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (0..1) by linear interpolation
        inside the bucket where the rank falls.  The +Inf bucket
        reports its lower bound (the largest finite bound)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            if seen + n >= rank:
                hi = (self.bounds[i] if i < len(self.bounds)
                      else self.bounds[-1])
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i >= len(self.bounds):
                    return hi
                frac = (rank - seen) / n
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += n
        return self.bounds[-1] if self.bounds else 0.0

    def percentiles(self) -> dict:
        """The standard p50/p95/p99 summary plus count and mean."""
        return {
            "count": self.count,
            "mean": round(self.sum / self.count, 6) if self.count
            else 0.0,
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }


class Family:
    """A named metric family: one child per label set."""

    __slots__ = ("registry", "name", "kind", "help", "bounds",
                 "_children")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 kind: str, help: str = "",
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = tuple(bounds) if bounds is not None else None
        self._children: dict[str, object] = {}

    def labels(self, **labels):
        """The child for one label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self, key, self.bounds or
                                  LATENCY_BUCKETS)
            else:
                child = Counter(self, key)
            self._children[key] = child
        return child

    # Unlabeled convenience forwarding: family.inc() etc. act on the
    # empty-label child, so a scalar metric needs no labels() call.
    def inc(self, amount=1) -> None:
        self.labels().inc(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self):
        return self.labels().value

    def children(self) -> dict[str, object]:
        return dict(self._children)


class MetricsRegistry:
    """A set of metric families with snapshot/merge semantics.

    Instrumented code holds a family (or child) reference and bumps it
    unconditionally; the one ``recording`` bool inside each bump is
    the entire cost of the disabled path.  ``recording`` defaults from
    the ``REPRO_METRICS`` environment variable (anything but ``"0"``
    enables it).
    """

    def __init__(self, recording: Optional[bool] = None) -> None:
        if recording is None:
            recording = os.environ.get("REPRO_METRICS", "1") != "0"
        self.recording = recording
        self._families: dict[str, Family] = {}
        self._lock = threading.Lock()

    # ----------------------------------------------------- registration
    def _family(self, name: str, kind: str, help: str = "",
                bounds: Optional[Sequence[float]] = None) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(self, name, kind, help=help,
                                bounds=bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}")
            return family

    def counter(self, name: str, help: str = "") -> Family:
        return self._family(name, "counter", help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Family:
        return self._family(name, "histogram", help=help,
                            bounds=buckets or LATENCY_BUCKETS)

    def families(self) -> dict[str, Family]:
        with self._lock:
            return dict(self._families)

    # --------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """JSON-able copy of every family (the cross-process frame).

        Empty families (registered, never bumped) are included with no
        children so the merged side still learns the name and kind.
        """
        out: dict = {"schema": SNAPSHOT_SCHEMA, "families": {}}
        for name, family in sorted(self.families().items()):
            entry: dict = {"kind": family.kind}
            if family.help:
                entry["help"] = family.help
            children = {}
            for key, child in sorted(family.children().items()):
                if family.kind == "histogram":
                    children[key] = {
                        "bounds": list(child.bounds),
                        "bucket_counts": list(child.bucket_counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    children[key] = child.value
            entry["children"] = children
            if family.kind == "histogram":
                entry["bounds"] = list(family.bounds or
                                       LATENCY_BUCKETS)
            out["families"][name] = entry
        return out

    def reset(self) -> None:
        """Drop every recorded value (families stay registered)."""
        for family in self.families().values():
            family._children.clear()

    def snapshot_and_reset(self) -> dict:
        """Snapshot then reset: the per-task delta frame a sweep pool
        worker ships back, so folding deltas never double-counts."""
        snap = self.snapshot()
        self.reset()
        return snap

    # ------------------------------------------------------------ merge
    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets/sums/counts add (ints stay
        ints, so bucket counts are exact).  Unknown families are
        created on the fly.
        """
        for name, entry in snapshot.get("families", {}).items():
            kind = entry["kind"]
            family = self._family(name, kind,
                                  help=entry.get("help", ""),
                                  bounds=entry.get("bounds"))
            for key, payload in entry.get("children", {}).items():
                child = family.labels(**_parse_label_key(key))
                if kind == "counter":
                    child.value += payload
                else:
                    if tuple(payload["bounds"]) != child.bounds:
                        raise ValueError(
                            f"histogram {name!r}: bucket bounds "
                            f"mismatch on merge")
                    for i, n in enumerate(payload["bucket_counts"]):
                        child.bucket_counts[i] += n
                    child.sum += payload["sum"]
                    child.count += payload["count"]

    # ----------------------------------------------------------- export
    def summary(self) -> dict:
        """Compact JSON view: counters by name, histograms as
        p50/p95/p99 summaries (the ``metrics`` manifest section)."""
        out: dict = {}
        for name, family in sorted(self.families().items()):
            children = family.children()
            if not children:
                continue
            if family.kind == "histogram":
                out[name] = {key or "_": child.percentiles()
                             for key, child in sorted(children.items())}
            else:
                out[name] = {key or "_": child.value
                             for key, child in sorted(children.items())}
        return out


def snapshot_summary(snapshot: dict) -> dict:
    """Compact p50/p95/p99 summary of a serialized snapshot."""
    registry = MetricsRegistry(recording=True)
    registry.merge(snapshot)
    return registry.summary()


#: The process-global registry every instrumented layer records into.
#: ``REPRO_METRICS=0`` disables recording process-wide (the registry
#: object still exists, so instrumented code never branches on None).
REGISTRY = MetricsRegistry()
