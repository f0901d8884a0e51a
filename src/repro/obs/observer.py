"""The single observability switch: :class:`Observer`.

Every layer of the pipeline (frontend driver, scheduler, register
allocator, simulator, experiment harness) accepts an observer and
calls it unconditionally.  The base class is the disabled observer,
and it is also the harness's only clock: every ``span()`` reads the
clock once on enter and once on exit and adds the span's *self*
seconds (its duration less its child spans) to :attr:`Observer.seconds`,
a flat ``{span name: seconds}`` dict.  A grid point's phase timings
are exactly the spans opened inside its ``grid-point`` span
(:meth:`Observer.take_seconds`).  Nothing else is recorded, so the
disabled path costs two clock reads per span and one boolean test per
*simulated run*; generated code, cycle counts and cache fingerprints
are untouched.

:class:`TracingObserver` is the real thing: it keeps the same
``seconds`` dict and also owns a
:class:`~repro.obs.trace.TraceRecorder`, a
:class:`~repro.obs.provenance.ScheduleProvenance`, and one
:class:`~repro.obs.stall.StallProfile` per simulated grid point.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

from .provenance import ScheduleProvenance
from .stall import StallProfile
from .trace import TraceRecorder


class _TimedSpan:
    """One disabled-observer span: times itself, records nothing else."""

    __slots__ = ("_observer", "_name", "_start")

    def __init__(self, observer: "Observer", name: str) -> None:
        self._observer = observer
        self._name = name

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_TimedSpan":
        observer = self._observer
        observer._children.append(0.0)
        self._start = observer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        observer = self._observer
        elapsed = observer._clock() - self._start
        children = observer._children
        seconds = observer.seconds
        seconds[self._name] = (seconds.get(self._name, 0.0) + elapsed
                               - children.pop())
        if children:
            children[-1] += elapsed
        return False


class Observer:
    """Disabled observability sink (the default everywhere): it times
    spans and records nothing else."""

    enabled: bool = False
    trace: Optional[TraceRecorder] = None
    provenance: Optional[ScheduleProvenance] = None

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Self seconds per span name since the last take_seconds().
        self.seconds: dict[str, float] = {}
        #: Child seconds of each open span, innermost last.
        self._children: list[float] = []

    def span(self, name: str, **attrs):
        return _TimedSpan(self, name)

    def take_seconds(self) -> dict[str, float]:
        """Return the self seconds recorded so far and start afresh."""
        seconds, self.seconds = self.seconds, {}
        return seconds

    def event(self, name: str, **attrs) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def stall_profile(self, benchmark: str, scheduler: str = "",
                      config: str = "") -> Optional[StallProfile]:
        """Profile to fill for one simulated run (None = don't)."""
        return None


#: Shared default: observability off, spans timed.
NULL_OBSERVER = Observer()


class TracingObserver(Observer):
    """Records spans, stall profiles and schedule provenance."""

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        self.trace = TraceRecorder(clock)
        self.provenance = ScheduleProvenance()
        #: "bench/scheduler/config" -> profile, insertion-ordered.
        self.stall_profiles: dict[str, StallProfile] = {}

    # ------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, **attrs):
        with super().span(name), self.trace.span(name, **attrs) as span:
            yield span

    def event(self, name: str, **attrs) -> None:
        self.trace.event(name, **attrs)

    def annotate(self, **attrs) -> None:
        self.trace.annotate(**attrs)

    # ------------------------------------------------------------ stalls
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
        out: dict = {"trace": self.trace.summary()}
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
        """Write ``<prefix>.jsonl`` + ``<prefix>.chrome.json``."""
        prefix = Path(prefix)
        return {
            "jsonl": self.trace.write_jsonl(
                prefix.with_name(prefix.name + ".jsonl")),
            "chrome": self.trace.write_chrome_trace(
                prefix.with_name(prefix.name + ".chrome.json")),
        }
