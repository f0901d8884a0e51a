"""Regenerate the paper's Tables 1-9 from experiment results.

Each ``tableN`` function returns a :class:`Table` (title, headers,
rows) that ``format_table`` renders as aligned text; the benchmark
scripts under ``benchmarks/`` print them.  Speedups follow the paper's
conventions: Table 4 and 6 are relative to balanced scheduling under
fewer optimizations; Tables 5, 7 and 8 compare balanced against
traditional scheduling under the *same* optimizations; averages are
arithmetic means over the workload, as in the paper.

Table 10 goes beyond the paper: it evaluates software pipelining
(iterative modulo scheduling) as a fourth ILP axis under both weight
models, in the same speedup conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..machine.config import DEFAULT_CONFIG, INSTRUCTION_LATENCIES
from ..workloads.programs import WORKLOAD_ORDER, WORKLOADS
from .experiment import ExperimentRunner, RunResult, arithmetic_mean


@dataclass
class Table:
    number: int
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def format(self) -> str:
        return format_table(self)


def format_table(table: Table) -> str:
    widths = [len(h) for h in table.headers]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"Table {table.number}: {table.title}", ""]
    header = "  ".join(h.ljust(widths[i])
                       for i, h in enumerate(table.headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in table.rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _benchmarks(benchmarks: Optional[list[str]]) -> list[str]:
    return benchmarks if benchmarks is not None else list(WORKLOAD_ORDER)


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def _pct(value: float, digits: int = 1) -> str:
    return f"{100 * value:.{digits}f}%"


# ----------------------------------------------------------- Tables 1-3
def table1() -> Table:
    table = Table(1, "The workload.",
                  ["Program", "Lang.", "Description"])
    for name in WORKLOAD_ORDER:
        workload = WORKLOADS[name]
        table.rows.append([workload.name, workload.language,
                           workload.description])
    return table


def table2() -> Table:
    table = Table(2, "Memory hierarchy parameters.",
                  ["Level", "Size", "Assoc", "Line/Page", "Latency"])
    for row in DEFAULT_CONFIG.memory_table():
        table.rows.append(list(row))
    return table


def table3() -> Table:
    table = Table(3, "Processor latencies.",
                  ["Instruction type", "Latency"])
    for name, latency in INSTRUCTION_LATENCIES.items():
        table.rows.append([name, str(latency)])
    return table


# ------------------------------------------------------------- Table 4
def table4(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """Balanced scheduling under loop unrolling (speedups vs no LU)."""
    table = Table(
        4,
        "Balanced scheduling: speedup in total cycles and percentage "
        "decrease in dynamic instruction count and load interlock "
        "cycles for unrolling factors of 4 and 8, relative to no "
        "unrolling.",
        ["Benchmark", "Cycles (no LU)", "Speedup LU4", "Speedup LU8",
         "Instrs (no LU)", "dInstr LU4", "dInstr LU8",
         "LdIntlk (no LU)", "dLdIntlk LU4", "dLdIntlk LU8"])
    speed4, speed8, dins4, dins8, dld4, dld8 = [], [], [], [], [], []
    for name in _benchmarks(benchmarks):
        base = runner.run(name, "balanced", "base")
        lu4 = runner.run(name, "balanced", "lu4")
        lu8 = runner.run(name, "balanced", "lu8")
        s4 = base.total_cycles / lu4.total_cycles
        s8 = base.total_cycles / lu8.total_cycles
        di4 = 1 - lu4.instructions / base.instructions
        di8 = 1 - lu8.instructions / base.instructions
        if base.load_interlock_cycles:
            dl4 = 1 - lu4.load_interlock_cycles / base.load_interlock_cycles
            dl8 = 1 - lu8.load_interlock_cycles / base.load_interlock_cycles
            dl4_s, dl8_s = _pct(dl4), _pct(dl8)
            dld4.append(dl4)
            dld8.append(dl8)
        else:
            dl4_s = dl8_s = "----"
        speed4.append(s4)
        speed8.append(s8)
        dins4.append(di4)
        dins8.append(di8)
        table.rows.append([
            name, str(base.total_cycles), _fmt(s4), _fmt(s8),
            str(base.instructions), _pct(di4), _pct(di8),
            str(base.load_interlock_cycles), dl4_s, dl8_s])
    table.rows.append([
        "AVERAGE", "", _fmt(arithmetic_mean(speed4)),
        _fmt(arithmetic_mean(speed8)), "",
        _pct(arithmetic_mean(dins4)), _pct(arithmetic_mean(dins8)), "",
        _pct(arithmetic_mean(dld4)), _pct(arithmetic_mean(dld8))])
    return table


# ------------------------------------------------------------- Table 5
def table5(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """Balanced vs traditional scheduling under loop unrolling."""
    table = Table(
        5,
        "Balanced scheduling (BS) vs. traditional scheduling (TS) for "
        "loop unrolling: total cycles speedup, percentage improvement "
        "in load interlock cycles, and load interlock cycles as a "
        "percentage of total cycles.",
        ["Benchmark",
         "BSvTS noLU", "BSvTS LU4", "BSvTS LU8",
         "dLdIntlk noLU", "dLdIntlk LU4", "dLdIntlk LU8",
         "Ld% BS/TS noLU", "Ld% BS/TS LU4", "Ld% BS/TS LU8"])
    configs = ("base", "lu4", "lu8")
    speedups = {c: [] for c in configs}
    reductions = {c: [] for c in configs}
    fractions_bs = {c: [] for c in configs}
    fractions_ts = {c: [] for c in configs}
    for name in _benchmarks(benchmarks):
        row = [name]
        cells_speed, cells_red, cells_frac = [], [], []
        for config in configs:
            bs = runner.run(name, "balanced", config)
            ts = runner.run(name, "traditional", config)
            speedup = ts.total_cycles / bs.total_cycles
            speedups[config].append(speedup)
            cells_speed.append(_fmt(speedup))
            if ts.load_interlock_cycles:
                reduction = 1 - (bs.load_interlock_cycles
                                 / ts.load_interlock_cycles)
                reductions[config].append(reduction)
                cells_red.append(_pct(reduction))
            else:
                cells_red.append("-----")
            fractions_bs[config].append(bs.load_interlock_fraction)
            fractions_ts[config].append(ts.load_interlock_fraction)
            cells_frac.append(f"{_pct(bs.load_interlock_fraction)}/"
                              f"{_pct(ts.load_interlock_fraction)}")
        table.rows.append(row + cells_speed + cells_red + cells_frac)
    average = ["AVERAGE"]
    average += [_fmt(arithmetic_mean(speedups[c])) for c in configs]
    average += [_pct(arithmetic_mean(reductions[c])) for c in configs]
    average += [f"{_pct(arithmetic_mean(fractions_bs[c]))}/"
                f"{_pct(arithmetic_mean(fractions_ts[c]))}"
                for c in configs]
    table.rows.append(average)
    return table


# ------------------------------------------------------------- Table 6
TABLE6_CONFIGS = ("lu4", "lu8", "trs4", "trs8", "la",
                  "la+lu4", "la+lu8", "la+trs4", "la+trs8")


def table6(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """Speedups over balanced scheduling alone, all combinations."""
    headers = ["Benchmark"] + [c.upper() for c in TABLE6_CONFIGS]
    table = Table(
        6,
        "Speedups over balanced scheduling alone for combinations of "
        "loop unrolling by 4 and 8 (LU4, LU8), trace scheduling (TRS) "
        "and locality analysis (LA).",
        headers)
    sums = {c: [] for c in TABLE6_CONFIGS}
    for name in _benchmarks(benchmarks):
        base = runner.run(name, "balanced", "base")
        row = [name]
        for config in TABLE6_CONFIGS:
            result = runner.run(name, "balanced", config)
            speedup = base.total_cycles / result.total_cycles
            sums[config].append(speedup)
            row.append(_fmt(speedup))
        table.rows.append(row)
    table.rows.append(["AVERAGE"] + [
        _fmt(arithmetic_mean(sums[c])) for c in TABLE6_CONFIGS])
    return table


# ------------------------------------------------------------- Table 7
TABLE7_CONFIGS = ("base", "lu4", "lu8", "trs4", "trs8")


def table7(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """BS vs TS speedup for unrolling and trace scheduling."""
    headers = ["Benchmark", "No LU", "LU 4", "LU 8",
               "TrS + LU 4", "TrS + LU 8"]
    table = Table(
        7,
        "Balanced scheduling (BS) vs. traditional scheduling (TS): "
        "total cycles speedup for loop unrolling alone and trace "
        "scheduling with loop unrolling.",
        headers)
    sums = {c: [] for c in TABLE7_CONFIGS}
    for name in _benchmarks(benchmarks):
        row = [name]
        for config in TABLE7_CONFIGS:
            bs = runner.run(name, "balanced", config)
            ts = runner.run(name, "traditional", config)
            speedup = ts.total_cycles / bs.total_cycles
            sums[config].append(speedup)
            row.append(_fmt(speedup))
        table.rows.append(row)
    table.rows.append(["AVERAGE"] + [
        _fmt(arithmetic_mean(sums[c])) for c in TABLE7_CONFIGS])
    return table


# ------------------------------------------------------------- Table 8
def table8(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """Summary comparison of balanced and traditional scheduling."""
    table = Table(
        8,
        "Summary comparison of balanced scheduling and traditional "
        "scheduling (averages across the workload).",
        ["Optimizations (in addition to scheduling)",
         "BSvTS speedup", "BSvTS dLdIntlk",
         "Program speedup vs BS-no-opt", "dLdIntlk vs BS-no-opt",
         "Ld% of cycles (BS)", "Ld% of cycles (TS)"])
    rows = (("No optimizations", "base"),
            ("Loop unrolling by 4", "lu4"),
            ("Loop unrolling by 8", "lu8"),
            ("Trace scheduling with loop unrolling by 4", "trs4"),
            ("Trace scheduling with loop unrolling by 8", "trs8"))
    names = _benchmarks(benchmarks)
    for label, config in rows:
        bsts, dld_ts, prog, dld_bs, frac_bs, frac_ts = [], [], [], [], [], []
        for name in names:
            base = runner.run(name, "balanced", "base")
            bs = runner.run(name, "balanced", config)
            ts = runner.run(name, "traditional", config)
            bsts.append(ts.total_cycles / bs.total_cycles)
            if ts.load_interlock_cycles:
                dld_ts.append(1 - bs.load_interlock_cycles
                              / ts.load_interlock_cycles)
            prog.append(base.total_cycles / bs.total_cycles)
            if base.load_interlock_cycles:
                dld_bs.append(1 - bs.load_interlock_cycles
                              / base.load_interlock_cycles)
            frac_bs.append(bs.load_interlock_fraction)
            frac_ts.append(ts.load_interlock_fraction)
        table.rows.append([
            label, _fmt(arithmetic_mean(bsts)),
            _pct(arithmetic_mean(dld_ts), 0),
            "n.a." if config == "base" else _fmt(arithmetic_mean(prog)),
            "n.a." if config == "base" else _pct(arithmetic_mean(dld_bs), 0),
            _pct(arithmetic_mean(frac_bs), 0),
            _pct(arithmetic_mean(frac_ts), 0)])
    return table


# ------------------------------------------------------------- Table 9
def table9(runner: ExperimentRunner,
           benchmarks: Optional[list[str]] = None) -> Table:
    """Summary comparison of locality analysis results."""
    table = Table(
        9,
        "Summary comparison of locality analysis results (averages "
        "across the workload).",
        ["Optimizations", "Speedup vs LA alone",
         "Speedup vs BS with no unrolling/trace scheduling"])
    rows = (("Locality analysis", "la"),
            ("Locality analysis with loop unrolling by 4", "la+lu4"),
            ("Locality analysis with loop unrolling by 8", "la+lu8"),
            ("Locality analysis with trace scheduling and loop "
             "unrolling by 4", "la+trs4"),
            ("Locality analysis with trace scheduling and loop "
             "unrolling by 8", "la+trs8"))
    names = _benchmarks(benchmarks)
    for label, config in rows:
        vs_la, vs_base = [], []
        for name in names:
            base = runner.run(name, "balanced", "base")
            la = runner.run(name, "balanced", "la")
            result = runner.run(name, "balanced", config)
            vs_la.append(la.total_cycles / result.total_cycles)
            vs_base.append(base.total_cycles / result.total_cycles)
        table.rows.append([
            label,
            "n.a." if config == "la" else _fmt(arithmetic_mean(vs_la)),
            _fmt(arithmetic_mean(vs_base))])
    return table


# ------------------------------------------------------------ Table 10
def table10(runner: ExperimentRunner,
            benchmarks: Optional[list[str]] = None) -> Table:
    """Software pipelining as a fourth ILP axis (beyond the paper)."""
    table = Table(
        10,
        "Software pipelining (SWP): total cycles speedup over the same "
        "scheduler without SWP, balanced vs. traditional, plus loops "
        "pipelined and the achieved initiation interval over its lower "
        "bound (balanced scheduler).",
        ["Benchmark", "BS SWP", "BS LA+SWP", "TS SWP",
         "Loops piped", "max II/MII"])
    bs_swp, bs_laswp, ts_swp = [], [], []
    for name in _benchmarks(benchmarks):
        bs_base = runner.run(name, "balanced", "base")
        bs_la = runner.run(name, "balanced", "la")
        ts_base = runner.run(name, "traditional", "base")
        swp = runner.run(name, "balanced", "swp")
        laswp = runner.run(name, "balanced", "la+swp")
        tswp = runner.run(name, "traditional", "swp")
        s_bs = bs_base.total_cycles / swp.total_cycles
        s_la = bs_la.total_cycles / laswp.total_cycles
        s_ts = ts_base.total_cycles / tswp.total_cycles
        bs_swp.append(s_bs)
        bs_laswp.append(s_la)
        ts_swp.append(s_ts)
        ratio = (_fmt(swp.swp_max_ii_over_mii)
                 if swp.swp_pipelined else "----")
        table.rows.append([
            name, _fmt(s_bs), _fmt(s_la), _fmt(s_ts),
            f"{swp.swp_pipelined}/{swp.swp_attempted}", ratio])
    table.rows.append([
        "AVERAGE", _fmt(arithmetic_mean(bs_swp)),
        _fmt(arithmetic_mean(bs_laswp)), _fmt(arithmetic_mean(ts_swp)),
        "", ""])
    return table


ALL_TABLES = {
    1: lambda runner=None, benchmarks=None: table1(),
    2: lambda runner=None, benchmarks=None: table2(),
    3: lambda runner=None, benchmarks=None: table3(),
    4: table4,
    5: table5,
    6: table6,
    7: table7,
    8: table8,
    9: table9,
    10: table10,
}

#: Grid configs each table reads; ``--configs`` filtering generates
#: only the tables whose inputs are all selected.
TABLE_CONFIGS: dict[int, tuple[str, ...]] = {
    1: (), 2: (), 3: (),
    4: ("base", "lu4", "lu8"),
    5: ("base", "lu4", "lu8"),
    6: ("base",) + TABLE6_CONFIGS,
    7: TABLE7_CONFIGS,
    8: ("base", "lu4", "lu8", "trs4", "trs8"),
    9: ("base", "la", "la+lu4", "la+lu8", "la+trs4", "la+trs8"),
    10: ("base", "la", "swp", "la+swp"),
}


def generate_all(runner: ExperimentRunner,
                 benchmarks: Optional[list[str]] = None) -> str:
    """Render every table, separated by blank lines."""
    return "\n\n\n".join(ALL_TABLES[number](runner, benchmarks).format()
                           for number in sorted(ALL_TABLES))
