"""Benchmark-level dependence/pressure reports and analysis lints."""

import json

import pytest

from repro.analysis import (
    ANALYSIS_SCHEMA_VERSION,
    analysis_summary,
    analyze_program,
    format_report,
    lint_loop_analysis,
)
from repro.check import NOTE, WARNING
from repro.harness.compile import Options, compile_source
from repro.harness.experiment import attach_section
from repro.ir import BasicBlock, Cfg
from repro.isa import Instruction, Reg
from repro.machine import DEFAULT_CONFIG
from repro.workloads import WORKLOADS

TRIAD = """
array X[64] : float;
array Y[64] : float;
array Z[64] : float;

func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { X[i] = float(i); }
    for (i = 0; i < 64; i = i + 1) { Y[i] = float(i) * 2.0; }
    for (i = 0; i < 64; i = i + 1) { Z[i] = X[i] + Y[i]; }
}
"""

RECURRENCE = """
array X[64] : float;
var b : float = 0.5;

func main() {
    var i : int;
    X[0] = 1.0;
    for (i = 1; i < 64; i = i + 1) { X[i] = X[i-1] * b; }
}
"""


def test_analyze_program_schema_and_loops():
    report = analyze_program(TRIAD, Options(), "triad")
    assert report["schema"] == ANALYSIS_SCHEMA_VERSION
    assert report["benchmark"] == "triad"
    assert report["options"] == "balanced"
    assert report["blocks"] > 0
    assert len(report["loops"]) == 3
    for loop in report["loops"]:
        assert loop["pairs"] == (loop["independent"] + loop["exact"]
                                 + loop["always"] + loop["unknown"])
        assert set(loop["max_live"]) == {"i", "f"}
    # The triad loop's store is independent of both loads.
    triad_loop = max(report["loops"], key=lambda l: l["pairs"])
    assert triad_loop["independent"] == triad_loop["pairs"] > 0
    assert triad_loop["unknown"] == 0


def test_analyze_program_recurrence_has_carried_distance():
    report = analyze_program(RECURRENCE, Options(), "rec")
    loops = [l for l in report["loops"] if l["exact"]]
    assert loops, "recurrence loop not analyzed"
    assert loops[0]["min_distance"] == 1


def test_independent_store_note_surfaces_in_report():
    report = analyze_program(TRIAD, Options(), "triad")
    assert any("independent-store-ordered" in d
               for d in report["diagnostics"])


def test_format_report_renders_loops_and_budget():
    report = analyze_program(TRIAD, Options(), "triad")
    text = format_report(report)
    assert "== triad / balanced ==" in text
    assert "peak MAXLIVE" in text
    assert "mem pairs" in text
    assert "independent" in text


def test_analysis_summary_points_and_totals():
    reports = [analyze_program(TRIAD, Options(), "triad"),
               analyze_program(RECURRENCE, Options(), "rec")]
    summary = analysis_summary(reports)
    assert summary["schema"] == ANALYSIS_SCHEMA_VERSION
    assert set(summary["points"]) == {"triad/balanced", "rec/balanced"}
    point = summary["points"]["triad/balanced"]
    assert point["loops"] == 3
    assert point["independent"] > 0
    totals = summary["totals"]
    for key in ("loops", "pairs", "independent", "exact", "always",
                "unknown"):
        assert totals[key] == sum(p[key]
                                  for p in summary["points"].values())
    assert totals["pairs"] == (totals["independent"] + totals["exact"]
                               + totals["always"] + totals["unknown"])


def test_attach_analysis_roundtrip(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 6, "runs": []}))
    summary = analysis_summary([analyze_program(TRIAD, Options(),
                                                "triad")])
    attach_section(manifest, "analysis", summary)
    data = json.loads(manifest.read_text())
    assert data["runs"] == []
    assert data["analysis"]["points"]["triad/balanced"]["loops"] == 3


def test_options_label_feeds_point_key():
    report = analyze_program(TRIAD, Options(unroll=4), "triad")
    summary = analysis_summary([report])
    (key,) = summary["points"]
    assert key.startswith("triad/") and "lu4" in key


# --------------------------------------------------- lint: pressure
def _overpressure_cfg(n_fp=None):
    """entry -> loop (self BNE) -> exit holding n_fp FP values live."""
    if n_fp is None:
        n_fp = DEFAULT_CONFIG.allocatable_fp_regs + 1
    vi0 = Reg("i", 1, virtual=True)
    vf = [Reg("f", k, virtual=True) for k in range(n_fp + 1)]
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock(
        "entry",
        [Instruction("LDI", dest=vi0, imm=4),
         Instruction("CVTIF", dest=vf[0], srcs=(vi0,))],
        fallthrough="loop"))
    body = [Instruction("FADD", dest=vf[k], srcs=(vf[0], vf[0]))
            for k in range(1, n_fp + 1)]
    body.append(Instruction("SUB", dest=vi0, srcs=(vi0, vi0)))
    body.append(Instruction("BNE", srcs=(vi0,), label="loop"))
    cfg.add_block(BasicBlock("loop", body, fallthrough="exit"))
    sink = [Instruction("FADD", dest=vf[0], srcs=(vf[k], vf[k]))
            for k in range(1, n_fp + 1)]
    sink.append(Instruction("HALT"))
    cfg.add_block(BasicBlock("exit", sink))
    return cfg


def test_kernel_pressure_warning_fires_when_over_budget():
    diags = lint_loop_analysis(_overpressure_cfg())
    rules = [d.rule for d in diags]
    assert "kernel-pressure" in rules
    warning = next(d for d in diags if d.rule == "kernel-pressure")
    assert warning.severity == WARNING
    assert warning.block == "loop"
    assert "spill" in warning.message


def test_kernel_pressure_silent_within_budget():
    cfg = _overpressure_cfg(n_fp=4)
    assert not [d for d in lint_loop_analysis(cfg)
                if d.rule == "kernel-pressure"]


def test_analyze_flags_the_block_that_spills():
    # tomcatv's lu8 compile spills one slot; the analysis must see an
    # over-budget block there, as the allocator counts registers.
    options = Options(unroll=8)
    source = WORKLOADS["tomcatv"].source
    report = analyze_program(source, options, "tomcatv")
    assert compile_source(source, options, "tomcatv").allocation.n_slots == 1
    assert report["over_budget_blocks"]
