"""Per-benchmark dependence & pressure reports (``repro analyze``).

Ties the symbolic dependence analyzer (:mod:`repro.analysis.deps`) and
the MAXLIVE analysis (:mod:`repro.analysis.pressure`) into one
benchmark-level report:

* per innermost single-block loop: how many memory-access pairs the
  analyzer proved independent, resolved to an exact carried distance,
  or had to keep conservative — plus the loop's per-bank MAXLIVE
  against the allocatable register files;
* per CFG: whole-program peak pressure and the blocks whose MAXLIVE
  exceeds the allocatable budget (linear-scan will spill there);
* the analysis lints from :func:`repro.check.lints.lint_loop_analysis`.

The manifest-ready summary (:func:`analysis_summary`) is attached to
run manifests as the ``analysis`` section (manifest v6) and gated by
``repro obs-diff``: a change that loses proving power (fewer
independent pairs, more unknowns) or grows pressure fails the diff at
threshold 0.
"""

from __future__ import annotations

from ..check.lints import lint_loop_analysis
from ..ir.cfg import Cfg
from ..ir.loops import find_loops
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from .deps import analyze_loop_body
from .pressure import BANKS, cfg_pressure, over_budget

#: Schema of the per-benchmark report and the manifest ``analysis``
#: section.
ANALYSIS_SCHEMA_VERSION = 1


class _PreRegallocSnapshot:
    """Minimal pipeline-validator stand-in that captures the scheduled,
    pre-regalloc CFG (virtual registers, so MAXLIVE is meaningful)."""

    def __init__(self) -> None:
        self.cfg: Cfg | None = None

    def lint_source(self, program_ast) -> None:
        pass

    def after_pass(self, cfg: Cfg, pass_name: str) -> None:
        pass

    def before_schedule(self, cfg: Cfg) -> None:
        pass

    def after_schedule(self, cfg: Cfg, pass_name: str,
                       mode: str) -> None:
        pass

    def before_swp(self, cfg: Cfg) -> None:
        pass

    def after_swp(self, cfg: Cfg) -> None:
        pass

    def before_regalloc(self, cfg: Cfg) -> None:
        import copy

        self.cfg = copy.deepcopy(cfg)

    def after_regalloc(self, cfg: Cfg, allocation) -> None:
        pass


def _loop_reports(cfg: Cfg, pressure: dict[str, dict[str, int]],
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


def analyze_cfg(cfg: Cfg, config: MachineConfig = DEFAULT_CONFIG,
                benchmark: str = "program",
                options_label: str = "balanced") -> dict:
    """Dependence + pressure report over a scheduled pre-regalloc CFG."""
    budget = {"i": config.allocatable_int_regs,
              "f": config.allocatable_fp_regs}
    pressure = cfg_pressure(cfg)
    peak = {"i": 0, "f": 0}
    over = []
    for label in cfg.order:
        counts = pressure.get(label)
        if counts is None:
            continue
        for bank in BANKS:
            peak[bank] = max(peak[bank], counts[bank])
        if over_budget(counts, budget):
            over.append(label)
    loops = _loop_reports(cfg, pressure, budget)
    diagnostics = [diag.render()
                   for diag in lint_loop_analysis(cfg, config)]
    return {
        "schema": ANALYSIS_SCHEMA_VERSION,
        "benchmark": benchmark,
        "options": options_label,
        "pressure_limit": config.pressure_limit,
        "budget": budget,
        "blocks": len(cfg.order),
        "max_live": peak,
        "over_budget_blocks": over,
        "loops": loops,
        "diagnostics": diagnostics,
    }


def analyze_program(source: str, options=None,
                    name: str = "program") -> dict:
    """Compile *source* and report on its scheduled pre-regalloc CFG."""
    from ..harness.compile import Options, compile_source

    if options is None:
        options = Options()
    snapshot = _PreRegallocSnapshot()
    compile_source(source, options, name, validator=snapshot)
    assert snapshot.cfg is not None
    return analyze_cfg(snapshot.cfg, options.config, name,
                       options.label())


def format_report(report: dict) -> str:
    """Human-readable rendering of one benchmark report."""
    budget = report["budget"]
    lines = [f"== {report['benchmark']} / {report['options']} ==",
             f"blocks: {report['blocks']}, peak MAXLIVE "
             f"i={report['max_live']['i']} f={report['max_live']['f']} "
             f"(allocatable i={budget['i']} f={budget['f']}, "
             f"pressure limit {report['pressure_limit']})"]
    if report["over_budget_blocks"]:
        lines.append("over-budget blocks: "
                     + ", ".join(report["over_budget_blocks"]))
    for loop in report["loops"]:
        dist = (f", min carried d={loop['min_distance']}"
                if loop["min_distance"] is not None else "")
        over = (f"  OVER-BUDGET[{','.join(loop['over_budget'])}]"
                if loop["over_budget"] else "")
        lines.append(
            f"  loop {loop['label']}: {loop['ops']} ops, "
            f"{loop['pairs']} mem pairs "
            f"({loop['independent']} independent, {loop['exact']} "
            f"exact, {loop['always']} always, {loop['unknown']} "
            f"unknown{dist}); maxlive i={loop['max_live']['i']} "
            f"f={loop['max_live']['f']}{over}")
    if not report["loops"]:
        lines.append("  no innermost single-block loops")
    for diag in report["diagnostics"]:
        lines.append(f"  {diag}")
    return "\n".join(lines)


def analysis_summary(reports: list[dict]) -> dict:
    """Fold per-benchmark reports into the manifest ``analysis``
    section: one point per benchmark/options pair plus grand totals."""
    points = {}
    totals = {"loops": 0, "pairs": 0, "independent": 0, "exact": 0,
              "always": 0, "unknown": 0, "over_budget_blocks": 0}
    for report in reports:
        point = {
            "loops": len(report["loops"]),
            "pairs": sum(l["pairs"] for l in report["loops"]),
            "independent": sum(l["independent"]
                               for l in report["loops"]),
            "exact": sum(l["exact"] for l in report["loops"]),
            "always": sum(l["always"] for l in report["loops"]),
            "unknown": sum(l["unknown"] for l in report["loops"]),
            "max_live_i": report["max_live"]["i"],
            "max_live_f": report["max_live"]["f"],
            "over_budget_blocks": len(report["over_budget_blocks"]),
        }
        points[f"{report['benchmark']}/{report['options']}"] = point
        for key in totals:
            totals[key] += point[key]
    return {
        "schema": ANALYSIS_SCHEMA_VERSION,
        "points": dict(sorted(points.items())),
        "totals": totals,
    }
