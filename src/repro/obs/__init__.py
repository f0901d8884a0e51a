"""Observability: pipeline tracing, stall attribution, manifest diffs.

Everything hangs off one :class:`Observer` object.  The default
(:data:`NULL_OBSERVER`) is a no-op — zero cost, no behaviour change;
a :class:`TracingObserver` records nested pass/phase spans (exported
as JSONL and Chrome trace-event files loadable in Perfetto),
per-static-load stall attribution from the simulator, and per-load
schedule provenance from the block scheduler.  ``repro profile`` and
the ``--trace`` flags on ``bench``/``tables``/``report`` wire it up;
``repro obs-diff`` compares two run manifests for cycle regressions.
"""

from .diff import (
    DiffResult,
    PointDelta,
    diff_manifest_files,
    diff_manifests,
)
from .metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    snapshot_summary,
)
from .observer import NULL_OBSERVER, Observer, TracingObserver
from .provenance import LoadScheduleRecord, ScheduleProvenance
from .stall import StallProfile
from .trace import Span, TraceRecorder

__all__ = [
    "NULL_OBSERVER", "Observer", "TracingObserver",
    "TraceRecorder", "Span",
    "StallProfile",
    "LoadScheduleRecord", "ScheduleProvenance",
    "DiffResult", "PointDelta", "diff_manifests", "diff_manifest_files",
    "MetricsRegistry", "REGISTRY", "LATENCY_BUCKETS", "snapshot_summary",
]
