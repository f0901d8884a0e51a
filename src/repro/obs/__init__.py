"""Observability: pipeline tracing, stall attribution, manifest diffs.

Everything hangs off one :class:`Observer` object.  The default
(:data:`NULL_OBSERVER`) records only time: every span's self seconds,
the harness's one clock and the source of each grid point's manifest
phases, at two clock reads per span and with no behaviour change;
a :class:`TracingObserver` also records nested pass/phase spans (exported
as JSONL and Chrome trace-event files loadable in Perfetto),
per-static-load stall attribution from the simulator, and per-load
schedule provenance from the block scheduler.  ``repro profile`` and
the ``--trace`` flags on ``bench``/``tables``/``report`` wire it up;
``repro obs-diff`` gates a run manifest exactly against a baseline.
"""

from .diff import DiffResult, diff_manifest_files, diff_manifests
from .observer import NULL_OBSERVER, Observer, TracingObserver
from .provenance import LoadScheduleRecord, ScheduleProvenance
from .stall import StallProfile
from .trace import Span, TraceRecorder

__all__ = [
    "NULL_OBSERVER", "Observer", "TracingObserver",
    "TraceRecorder", "Span",
    "StallProfile",
    "LoadScheduleRecord", "ScheduleProvenance",
    "DiffResult", "diff_manifests", "diff_manifest_files",
]
