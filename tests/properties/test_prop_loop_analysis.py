"""Property tests: ``repro analyze``'s loop records and lints against
the code they replaced.

The per-loop records and the two loop lints (``independent-store-
ordered``, ``kernel-pressure``) now come from one pass over the loops
of ``ir.loops.loop_headers``: each loop's pairs from
``LoopBodyDeps.pairs()`` and its MAXLIVE from ``cfg_pressure``.  The
references below are the two functions that did this before, verbatim:
``_loop_reports`` with its own loop filter and double loop over memory
ops, and ``lint_loop_analysis`` with its own loop filter, its second
dependence analysis and its second liveness solve.  Both sides must
agree record for record and diagnostic for diagnostic on

* the scheduled pre-regalloc CFGs of the 17 workloads under both
  schedulers at ``base``, ``lu8``, ``la+lu8`` and ``swp``;
* the over-pressure loop of ``tests/analysis/test_report.py``, over
  the FP budget and within it.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_cfg, cfg_pressure, lint_loop_analysis
from repro.analysis.deps import analyze_loop_body
from repro.analysis.pressure import over_budget
from repro.analysis.report import _PreRegallocSnapshot
from repro.check.diagnostics import NOTE, WARNING, Diagnostic
from repro.harness.compile import compile_source
from repro.harness.experiment import SCHEDULERS, options_for
from repro.ir.cfg import Cfg
from repro.ir.loops import find_loops
from repro.isa import ALLOCATABLE
from repro.workloads import WORKLOAD_ORDER, WORKLOADS
from tests.analysis.test_report import _overpressure_cfg


# ================================================ the code as it was
def ref_loop_reports(cfg: Cfg, pressure: dict[str, dict[str, int]],
                     budget: dict[str, int]) -> list[dict]:
    loops = find_loops(cfg)
    order_pos = {label: i for i, label in enumerate(cfg.order)}
    reports = []
    for header in sorted(loops, key=order_pos.get):
        if loops[header].body != {header} or header == cfg.entry:
            continue
        ops = cfg.blocks[header].body
        deps = analyze_loop_body(ops)
        counts = {"independent": 0, "exact": 0, "always": 0,
                  "unknown": 0}
        pairs = 0
        min_distance = None
        mem_ops = [pos for pos, ins in enumerate(ops) if ins.is_mem]
        for a in mem_ops:
            for b in mem_ops:
                if a == b or (ops[a].is_load and ops[b].is_load):
                    continue
                pairs += 1
                verdict = deps.verdict(a, b)
                counts[verdict.kind] += 1
                distance = verdict.carried_distance()
                if distance is not None and (min_distance is None
                                             or distance < min_distance):
                    min_distance = distance
        maxlive = pressure.get(header, {"i": 0, "f": 0})
        reports.append({
            "label": header,
            "ops": len(ops),
            "mem_ops": len(mem_ops),
            "pairs": pairs,
            **counts,
            "min_distance": min_distance,
            "max_live": dict(maxlive),
            "over_budget": over_budget(maxlive, budget),
        })
    return reports


def ref_lint_loop_analysis(cfg: Cfg,
                           pass_name: str = "analyze") -> list[Diagnostic]:
    """Dependence/pressure lints over innermost single-block loops.

    Imports are deferred: :mod:`repro.analysis` itself builds on the
    :mod:`repro.check` dataflow engine, so a module-level import here
    would be circular.
    """
    from repro.analysis.deps import analyze_loop_body
    from repro.analysis.pressure import block_pressure, over_budget
    from repro.ir.liveness import liveness
    from repro.ir.loops import find_loops

    budget = ALLOCATABLE
    diags: list[Diagnostic] = []
    loops = find_loops(cfg)
    _live_in, live_out = liveness(cfg)
    for header in cfg.order:
        loop = loops.get(header)
        if loop is None or loop.body != {header} or header == cfg.entry:
            continue
        ops = cfg.blocks[header].body
        deps = analyze_loop_body(ops)
        mem_ops = [pos for pos, ins in enumerate(ops) if ins.is_mem]
        for a in mem_ops:
            if not ops[a].is_store:
                continue
            others = [b for b in mem_ops if b != a]
            if others and all(deps.verdict(a, b).kind == "independent"
                              and deps.verdict(b, a).kind
                              == "independent" for b in others):
                diags.append(Diagnostic(
                    severity=NOTE, rule="independent-store-ordered",
                    message=f"store at body position {a} "
                            f"({ops[a].op} {ops[a].mem.symbol}) is "
                            "provably independent of every other "
                            "memory access in the loop; its ordering "
                            "arcs are conservative",
                    pass_name=pass_name, block=header))
        pressure = block_pressure(cfg.blocks[header].instrs,
                                  live_out.get(header, frozenset()))
        for bank in over_budget(pressure, budget):
            diags.append(Diagnostic(
                severity=WARNING, rule="kernel-pressure",
                message=f"loop MAXLIVE of bank '{bank}' is "
                        f"{pressure[bank]}, over the allocatable "
                        f"{budget[bank]} registers: allocation will "
                        "spill inside this loop",
                pass_name=pass_name, block=header))
    return diags


# ============================================================ the checks
def _assert_same(cfg: Cfg) -> dict:
    report = analyze_cfg(cfg)
    assert report["loops"] == ref_loop_reports(cfg, cfg_pressure(cfg),
                                               ALLOCATABLE)
    expected = ref_lint_loop_analysis(cfg)
    assert lint_loop_analysis(cfg) == expected
    assert report["diagnostics"] == [diag.render() for diag in expected]
    return report


@pytest.mark.parametrize("config", ["base", "lu8", "la+lu8", "swp"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_workload_loops_match_the_reference(scheduler, config):
    loops = notes = 0
    for name in WORKLOAD_ORDER:
        options = options_for(scheduler, config)
        snapshot = _PreRegallocSnapshot()
        compile_source(WORKLOADS[name].source, options, name,
                       validator=snapshot)
        report = _assert_same(snapshot.cfg)
        loops += len(report["loops"])
        notes += len(report["diagnostics"])
    # The comparison is not vacuous: every grid point has loops, and
    # the lints fire somewhere.
    assert loops and notes


@pytest.mark.parametrize("n_fp", [None, 4])
def test_overpressure_loop_matches_the_reference(n_fp):
    report = _assert_same(_overpressure_cfg(n_fp))
    fired = any("kernel-pressure" in diag
                for diag in report["diagnostics"])
    assert fired == (n_fp is None)
