"""One clock: observer spans time every stage of a grid point.

The disabled observer reads its clock once when a span opens and once
when it closes, and keeps each span's self seconds (its duration less
its child spans).  A grid point's phase timings are exactly the spans
opened inside its ``grid-point`` span, so they sum to that span's
duration.  A tracing observer keeps those same spans, timed by the
same two reads, so its trace and the manifest agree.  An integer-tick
clock makes all of this exact.
"""

from __future__ import annotations

import itertools

import pytest

from repro.harness.experiment import _execute_grid_point
from repro.obs import Observer, TracingObserver
from repro.workloads import WORKLOADS


class _TickClock:
    """Integer-tick clock: reads 1, 2, 3, ... and counts its reads."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> int:
        self.reads += 1
        return self.reads


class _TickObserver(Observer):
    """Disabled observer on an integer-tick clock that counts spans."""

    def __init__(self) -> None:
        self.clock = _TickClock()
        self.opened = 0
        super().__init__(clock=self.clock)

    @property
    def reads(self) -> int:
        return self.clock.reads

    def span(self, name: str, **attrs):
        self.opened += 1
        return super().span(name, **attrs)


def _ticks(*values):
    return iter(values).__next__


def test_self_seconds_exclude_child_spans():
    observer = Observer(clock=_ticks(0, 1, 3, 4, 10, 11))
    with observer.span("outer"):
        with observer.span("inner"):
            pass
        with observer.span("inner"):
            pass
    # outer ran 11 ticks, 8 of them inside its two children.
    assert observer.take_seconds() == {"inner": 8, "outer": 3}
    assert observer.seconds == {}


def test_span_closes_when_its_body_raises():
    observer = Observer(clock=_ticks(0, 2, 5, 6))
    with pytest.raises(ValueError):
        with observer.span("failing"):
            raise ValueError("boom")
    with observer.span("after"):
        pass
    assert observer.take_seconds() == {"failing": 2, "after": 1}


def test_tracing_observer_keeps_the_same_dict():
    observer = TracingObserver(clock=itertools.count().__next__)
    with observer.span("outer"):
        with observer.span("inner") as span:
            span.annotate(blocks=3)
    assert set(observer.seconds) == {"outer", "inner"}
    assert all(value > 0 for value in observer.seconds.values())
    spans = {sp.name: sp for sp in observer.spans}
    assert set(spans) == {"outer", "inner"}
    assert spans["inner"].args == {"blocks": 3}


@pytest.mark.parametrize("config", ["trs4", "swp"])
def test_point_reads_the_clock_twice_per_span(config):
    observer = _TickObserver()
    with observer.span("before the point"):
        pass
    first_read = observer.reads + 1
    _, timing = _execute_grid_point(WORKLOADS["ora"], "balanced",
                                    config, observer=observer)
    assert observer.reads == 2 * observer.opened
    # grid-point is the first span the point opens and the last it
    # closes: its duration runs from the point's first tick to its last.
    assert timing.total_seconds == observer.reads - first_read
    assert sum(timing.phase_seconds.values()) == timing.total_seconds
    assert "before the point" not in timing.phase_seconds
    assert ("profile" in timing.phase_seconds) == (config == "trs4")
    assert ("swp" in timing.phase_seconds) == (config == "swp")
    assert observer.seconds == {}


@pytest.mark.parametrize("config", ["trs4", "swp"])
def test_traced_point_reads_the_clock_twice_per_span(config):
    clock = _TickClock()
    observer = TracingObserver(clock=clock)
    created = clock.reads
    _, timing = _execute_grid_point(WORKLOADS["ora"], "balanced",
                                    config, observer=observer)
    spans = observer.spans
    assert clock.reads - created == 2 * len(spans)

    def self_ticks(span):
        return span.end - span.start - sum(
            child.end - child.start for child in spans
            if child.depth == span.depth + 1
            and span.start < child.start < span.end)

    # The manifest's phases are the kept spans' self times, exactly.
    kept = {}
    for span in spans:
        kept[span.name] = kept.get(span.name, 0) + self_ticks(span)
    assert timing.phase_seconds == kept
    [point] = [span for span in spans if span.name == "grid-point"]
    assert point.end - point.start == timing.total_seconds


def test_timing_cost_is_per_stage_not_per_instruction():
    """The always-on clock costs two reads per span, and a grid point
    opens the same spans however large its program is: the timing cost
    is a constant per point, never per block or simulated instruction.
    (A wall-clock overhead threshold would be flaky on a shared host.)"""
    shapes = {}
    for benchmark in ("ora", "BDNA", "doduc"):
        observer = _TickObserver()
        result, _ = _execute_grid_point(
            WORKLOADS[benchmark], "balanced", "base", observer=observer)
        assert observer.reads == 2 * observer.opened
        shapes[benchmark] = (observer.opened, result.static_instructions,
                             result.instructions)
    spans = {count for count, _, _ in shapes.values()}
    assert len(spans) == 1, shapes
    static = sorted(size for _, size, _ in shapes.values())
    dynamic = sorted(size for _, _, size in shapes.values())
    assert static[-1] > 1.5 * static[0] and dynamic[-1] > 2 * dynamic[0]
