"""TracingObserver: kept spans, annotation, JSONL + Chrome export."""

from __future__ import annotations

import json
import pickle
import re

import pytest

from repro.__main__ import main
from repro.obs import Observer, TracingObserver


class FakeClock:
    """Deterministic clock: advances by `step` seconds per reading."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def test_span_nesting_and_depth():
    obs = TracingObserver(clock=FakeClock())
    with obs.span("outer"):
        with obs.span("inner", key=1):
            pass
    assert [s.name for s in obs.spans] == ["inner", "outer"]
    by_name = {s.name: s for s in obs.spans}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    assert by_name["inner"].args == {"key": 1}
    # Durations are positive and the inner span is contained.
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.start < inner.start < inner.end < outer.end


def test_annotate_sums_numeric_and_replaces_other():
    obs = TracingObserver(clock=FakeClock())
    with obs.span("phase") as sp:
        obs.annotate(blocks=2, label="a")
        obs.annotate(blocks=3, label="b")
    assert sp.args == {"blocks": 5, "label": "b"}


def test_annotate_outside_span_is_noop():
    tracer = TracingObserver(clock=FakeClock())
    for obs in (Observer(clock=FakeClock()), tracer):
        obs.annotate(ignored=1)     # must not raise
        assert obs.seconds == {}
    assert tracer.spans == []


def test_kept_spans_pickle_without_their_observer():
    obs = TracingObserver(clock=FakeClock())
    with obs.span("outer", benchmark="ora"):
        with obs.span("inner") as sp:
            sp.annotate(blocks=3)
    data = pickle.dumps(obs.spans)
    assert b"TracingObserver" not in data
    copies = pickle.loads(data)
    assert [(s.name, s.args, s.depth, s.start, s.end) for s in copies] \
        == [(s.name, s.args, s.depth, s.start, s.end) for s in obs.spans]


def test_jsonl_roundtrip(tmp_path):
    obs = TracingObserver(clock=FakeClock())
    with obs.span("compile", benchmark="ear"):
        with obs.span("lower"):
            pass
    paths = obs.write(tmp_path / "trace")
    assert paths["jsonl"] == tmp_path / "trace.jsonl"
    rows = [json.loads(line) for line in
            paths["jsonl"].read_text().splitlines()]
    assert [row["name"] for row in rows] == ["compile", "lower"]
    for row in rows:
        assert set(row) == {"type", "name", "ts_us", "dur_us", "depth",
                            "args"}
        assert row["type"] == "span" and row["dur_us"] > 0
    # Times are relative to the observer's creation (clock read 0).
    assert rows[0]["ts_us"] == 1000.0 and rows[0]["dur_us"] == 3000.0
    assert rows[0]["args"] == {"benchmark": "ear"}
    assert rows[1]["depth"] == 1


def test_chrome_trace_is_valid(tmp_path):
    obs = TracingObserver(clock=FakeClock())
    with obs.span("a"):
        with obs.span("b"):
            pass
    data = json.loads(obs.write(tmp_path / "trace")["chrome"].read_text())
    events = data["traceEvents"]
    assert [ev["name"] for ev in events] == ["a", "b"]
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert ev["pid"] == 1 and ev["tid"] == 1
    # Complete events sorted by start time.
    assert [ev["ts"] for ev in events] == sorted(ev["ts"] for ev in events)


def test_summary_aggregates_by_name():
    obs = TracingObserver(clock=FakeClock())
    for _ in range(3):
        with obs.span("block"):
            pass
    summary = obs.summary()["trace"]
    assert summary == {"spans": 3,
                       "by_name": {"block": {"count": 3, "us": 3000.0}}}


def test_profile_bills_engine_build_to_sim_build(tmp_path, capsys):
    """``repro profile`` builds the fast engine inside ``sim-build``,
    so ``simulate`` times only the run."""
    assert main(["profile", "ora", "--out", str(tmp_path / "p")]) == 0
    assert "sim-build" in capsys.readouterr().out
    rows = [json.loads(line) for line in
            (tmp_path / "p.jsonl").read_text().splitlines()]
    spans = {row["name"]: row for row in rows}
    build, simulate = spans["sim-build"], spans["simulate"]
    assert build["depth"] == simulate["depth"] == 0
    assert build["ts_us"] + build["dur_us"] <= simulate["ts_us"]


def test_profile_phases_are_self_times(tmp_path, capsys):
    """``repro profile``'s phase table prints each span name's self
    time, so its rows add up to the traced total: the top-level spans,
    each counted once."""
    assert main(["profile", "ora", "--out", str(tmp_path / "p")]) == 0
    table = re.split(r"^pipeline phases.*:$", capsys.readouterr().out,
                     flags=re.M)[1]
    rows = re.findall(r"^  (\S+)\s+x(\d+)\s+([\d.]+) ms$", table, re.M)
    spans = [json.loads(line) for line in
             (tmp_path / "p.jsonl").read_text().splitlines()]
    assert {name: int(count) for name, count, _ in rows} == {
        name: sum(1 for row in spans if row["name"] == name)
        for name in {row["name"] for row in spans}}
    traced_ms = sum(row["dur_us"] for row in spans
                    if row["depth"] == 0) / 1e3
    # Each row is rounded to 0.01 ms.
    assert sum(float(ms) for _, _, ms in rows) == pytest.approx(
        traced_ms, abs=0.005 * len(rows))
