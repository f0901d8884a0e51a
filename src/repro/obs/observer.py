"""The single observability switch: :class:`Observer`.

Every layer of the pipeline (frontend driver, scheduler, register
allocator, simulator, experiment harness) accepts an observer and
calls it unconditionally.  The base class is the disabled observer,
and it is also the harness's only clock: every ``span()`` reads the
clock once on enter and once on exit, which are the span's ``start``
and ``end``, and adds the span's *self* seconds (its duration less its
child spans) to :attr:`Observer.seconds`, a flat ``{span name:
seconds}`` dict.  A grid point's phase timings are exactly the spans
opened inside its ``grid-point`` span (:meth:`Observer.take_seconds`).
Nothing else is recorded, so the disabled path costs two clock reads
per span and one boolean test per *simulated run*; generated code,
cycle counts and cache fingerprints are untouched.

:class:`TracingObserver` is the real thing: it keeps every closed span
(the same object, timed by the same two reads, so a trace and a
manifest's phases agree exactly) and exports them as JSONL and Chrome
trace-event files, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  It also owns a
:class:`~repro.obs.provenance.ScheduleProvenance` and one
:class:`~repro.obs.stall.StallProfile` per simulated grid point.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional

from .provenance import ScheduleProvenance
from .stall import StallProfile


class _TimedSpan:
    """One span: its name, annotations, nesting depth and the two clock
    reads that time it."""

    __slots__ = ("_observer", "name", "args", "depth", "start", "end",
                 "child_seconds")

    def __init__(self, observer: "Observer", name: str,
                 args: dict) -> None:
        self._observer = observer
        self.name = name
        self.args = args
        #: Seconds spent in this span's closed child spans.
        self.child_seconds = 0.0

    def annotate(self, **attrs) -> None:
        """Merge *attrs* into ``args``, summing repeated numeric keys.

        Summing lets many sub-steps (e.g. per-block DAG builds)
        accumulate one aggregate on their enclosing phase span.
        """
        args = self.args
        for key, value in attrs.items():
            old = args.get(key)
            if (isinstance(old, (int, float)) and not isinstance(old, bool)
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)):
                value = old + value
            args[key] = value

    def __enter__(self) -> "_TimedSpan":
        observer = self._observer
        open_spans = observer._open
        self.depth = len(open_spans)
        open_spans.append(self)
        self.start = observer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        observer = self._observer
        end = self.end = observer._clock()
        elapsed = end - self.start
        open_spans = observer._open
        open_spans.pop()
        seconds = observer.seconds
        seconds[self.name] = (seconds.get(self.name, 0.0) + elapsed
                              - self.child_seconds)
        if open_spans:
            open_spans[-1].child_seconds += elapsed
        return False


class _KeptSpan(_TimedSpan):
    """A tracing observer's span: kept once closed, without a reference
    to its observer, so the kept list pickles."""

    __slots__ = ()

    def __exit__(self, *exc) -> bool:
        observer = self._observer
        super().__exit__(*exc)
        observer.spans.append(self)
        self._observer = None
        return False


class Observer:
    """Disabled observability sink (the default everywhere): it times
    spans and records nothing else."""

    enabled: bool = False
    provenance: Optional[ScheduleProvenance] = None

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Self seconds per span name since the last take_seconds().
        self.seconds: dict[str, float] = {}
        #: Open spans, innermost last.
        self._open: list[_TimedSpan] = []

    def span(self, name: str, **attrs) -> _TimedSpan:
        return _TimedSpan(self, name, attrs)

    def take_seconds(self) -> dict[str, float]:
        """Return the self seconds recorded so far and start afresh."""
        seconds, self.seconds = self.seconds, {}
        return seconds

    def annotate(self, **attrs) -> None:
        """Annotate the innermost open span (no-op outside spans)."""
        if self._open:
            self._open[-1].annotate(**attrs)

    def stall_profile(self, benchmark: str, scheduler: str = "",
                      config: str = "") -> Optional[StallProfile]:
        """Profile to fill for one simulated run (None = don't)."""
        return None


#: Shared default: observability off, spans timed.
NULL_OBSERVER = Observer()


class TracingObserver(Observer):
    """Keeps spans, stall profiles and schedule provenance."""

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        #: Exported span times are relative to this read.
        self._t0 = clock()
        #: Closed spans, in closing order.
        self.spans: list[_TimedSpan] = []
        self.provenance = ScheduleProvenance()
        #: "bench/scheduler/config" -> profile, insertion-ordered.
        self.stall_profiles: dict[str, StallProfile] = {}

    def span(self, name: str, **attrs) -> _TimedSpan:
        return _KeptSpan(self, name, attrs)

    def stall_profile(self, benchmark: str, scheduler: str = "",
                      config: str = "") -> Optional[StallProfile]:
        key = "/".join(p for p in (benchmark, scheduler, config) if p)
        profile = self.stall_profiles.get(key)
        if profile is None:
            profile = StallProfile()
            self.stall_profiles[key] = profile
        return profile

    # ------------------------------------------------------------ export
    def summary(self, top: int = 5) -> dict:
        """Compact JSON aggregate (embedded in run manifests)."""
        by_name: dict[str, list] = {}
        for sp in self.spans:
            entry = by_name.setdefault(sp.name, [0, 0.0])
            entry[0] += 1
            entry[1] += (sp.end - sp.start) * 1e6
        out: dict = {"trace": {
            "spans": len(self.spans),
            "by_name": {name: {"count": count, "us": round(us, 1)}
                        for name, (count, us) in sorted(by_name.items())},
        }}
        if self.stall_profiles:
            out["stalls"] = {key: profile.to_json(top=top)
                             for key, profile in
                             self.stall_profiles.items()}
        if len(self.provenance):
            out["provenance"] = {
                "loads": len(self.provenance),
                "deviating_loads": len(
                    self.provenance.balanced_deviations()),
            }
        return out

    def write(self, prefix: str | Path) -> dict[str, Path]:
        """Write the kept spans, sorted by start time, to
        ``<prefix>.jsonl`` (one row each) and ``<prefix>.chrome.json``
        (one complete event each); times are microseconds since the
        observer was created."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"type": "span", "name": sp.name,
                 "ts_us": round((sp.start - self._t0) * 1e6, 3),
                 "dur_us": round((sp.end - sp.start) * 1e6, 3),
                 "depth": sp.depth, "args": sp.args}
                for sp in sorted(self.spans, key=lambda sp: sp.start)]
        jsonl = prefix.with_name(prefix.name + ".jsonl")
        jsonl.write_text("".join(json.dumps(row) + "\n" for row in rows))
        chrome = prefix.with_name(prefix.name + ".chrome.json")
        chrome.write_text(json.dumps({
            "traceEvents": [{"name": row["name"], "cat": "repro",
                             "ph": "X", "ts": row["ts_us"],
                             "dur": row["dur_us"], "pid": 1, "tid": 1,
                             "args": row["args"]} for row in rows],
            "displayTimeUnit": "ms"}))
        return {"jsonl": jsonl, "chrome": chrome}
