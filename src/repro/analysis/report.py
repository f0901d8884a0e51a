"""Per-benchmark dependence & pressure reports (``repro analyze``).

Ties the symbolic dependence analyzer (:mod:`repro.analysis.deps`) and
the MAXLIVE analysis (:mod:`repro.analysis.pressure`) into one
benchmark-level report:

* per innermost single-block loop (:func:`repro.ir.loops.loop_headers`,
  the pipeliner's own filter): how many memory-access pairs the
  analyzer proved independent, resolved to an exact carried distance,
  or had to keep conservative — plus the loop's per-bank MAXLIVE
  against the allocatable register files;
* per CFG: whole-program peak pressure and the blocks whose MAXLIVE
  exceeds the allocatable budget (linear-scan will spill there);
* two lints read off each loop's record
  (:func:`lint_loop_analysis`): ``independent-store-ordered`` (note)
  -- a store provably independent of every other memory access in the
  body, in both directions and at every distance, whose ordering arcs
  the conservative DAG builder still adds; ``kernel-pressure``
  (warning) -- a loop's MAXLIVE over an allocatable bank, so
  linear-scan allocation will spill inside the hottest code.

The manifest-ready summary (:func:`analysis_summary`) is attached to
run manifests as the ``analysis`` section (manifest v6) and gated by
``repro obs-diff``: a change that loses proving power (fewer
independent pairs, more unknowns) or grows pressure fails the diff at
threshold 0.
"""

from __future__ import annotations

from ..check.boundary import _NullValidator
from ..check.diagnostics import NOTE, WARNING, Diagnostic
from ..ir.cfg import Cfg
from ..ir.loops import loop_headers
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from .deps import INDEPENDENT, analyze_loop_body
from .pressure import BANKS, cfg_pressure, over_budget

#: Schema of the per-benchmark report and the manifest ``analysis``
#: section.
ANALYSIS_SCHEMA_VERSION = 1


class _PreRegallocSnapshot(_NullValidator):
    """The null validator with one hook: it captures the scheduled,
    pre-regalloc CFG (virtual registers, so MAXLIVE is meaningful)."""

    cfg: Cfg | None = None

    def before_regalloc(self, cfg: Cfg) -> None:
        import copy

        self.cfg = copy.deepcopy(cfg)


def _budget(config: MachineConfig) -> dict[str, int]:
    return {"i": config.allocatable_int_regs,
            "f": config.allocatable_fp_regs}


def _loop_reports(cfg: Cfg, pressure: dict[str, dict[str, int]],
                  budget: dict[str, int]
                  ) -> tuple[list[dict], list[Diagnostic]]:
    """One record per innermost single-block loop, and the lints read
    off those records."""
    reports: list[dict] = []
    diags: list[Diagnostic] = []
    for header, single_block in loop_headers(cfg):
        if not single_block:
            continue
        ops = cfg.blocks[header].body
        counts = {"independent": 0, "exact": 0, "always": 0,
                  "unknown": 0}
        distances = []
        paired: set[int] = set()
        dependent: set[int] = set()
        for a, b, verdict in analyze_loop_body(ops).pairs():
            counts[verdict.kind] += 1
            distances.append(verdict.carried_distance())
            paired.update((a, b))
            if verdict.kind != INDEPENDENT:
                dependent.update((a, b))
        # pairs() skips only load/load pairs, so it holds every pair
        # with a store in it, both ways round.
        for pos in sorted(paired - dependent):
            if ops[pos].is_store:
                diags.append(Diagnostic(
                    severity=NOTE, rule="independent-store-ordered",
                    message=f"store at body position {pos} "
                            f"({ops[pos].op} {ops[pos].mem.symbol}) is "
                            "provably independent of every other "
                            "memory access in the loop; its ordering "
                            "arcs are conservative",
                    pass_name="analyze", block=header))
        maxlive = pressure.get(header, {"i": 0, "f": 0})
        over = over_budget(maxlive, budget)
        for bank in over:
            diags.append(Diagnostic(
                severity=WARNING, rule="kernel-pressure",
                message=f"loop MAXLIVE of bank '{bank}' is "
                        f"{maxlive[bank]}, over the allocatable "
                        f"{budget[bank]} registers: allocation will "
                        "spill inside this loop",
                pass_name="analyze", block=header))
        reports.append({
            "label": header,
            "ops": len(ops),
            "mem_ops": sum(1 for ins in ops if ins.is_mem),
            "pairs": sum(counts.values()),
            **counts,
            "min_distance": min((d for d in distances if d is not None),
                                default=None),
            "max_live": dict(maxlive),
            "over_budget": over,
        })
    return reports, diags


def lint_loop_analysis(cfg: Cfg, config: MachineConfig = DEFAULT_CONFIG
                       ) -> list[Diagnostic]:
    """The two loop lints over a scheduled pre-regalloc CFG."""
    return _loop_reports(cfg, cfg_pressure(cfg), _budget(config))[1]


def analyze_cfg(cfg: Cfg, config: MachineConfig = DEFAULT_CONFIG,
                benchmark: str = "program",
                options_label: str = "balanced") -> dict:
    """Dependence + pressure report over a scheduled pre-regalloc CFG."""
    budget = _budget(config)
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
    loops, diagnostics = _loop_reports(cfg, pressure, budget)
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
        "diagnostics": [diag.render() for diag in diagnostics],
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
