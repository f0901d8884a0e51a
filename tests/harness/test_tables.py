"""Table generators, using a stub runner so no simulation happens."""

from dataclasses import replace

import pytest

from repro.harness.experiment import RunResult
from repro.harness.tables import (
    Table,
    format_table,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
)


def _result(benchmark, scheduler, config, cycles, load_intlk,
            instructions=1000, **swp_fields):
    return RunResult(
        benchmark=benchmark, scheduler=scheduler, config=config,
        total_cycles=cycles, instructions=instructions,
        load_interlock_cycles=load_intlk, fixed_interlock_cycles=10,
        icache_stall_cycles=0, branch_stall_cycles=0, mshr_stall_cycles=0,
        spill_loads=0, spill_stores=0, loads=100, stores=50, branches=20,
        short_int=300, long_int=5, short_fp=400, long_fp=5,
        l1d_misses=10, l2_misses=5, l3_misses=1, branch_mispredicts=3,
        static_instructions=200, spill_slots=0, **swp_fields)


class StubRunner:
    """Deterministic fake results: balanced is faster, more so with
    more optimization; load interlocks shrink accordingly.  ``sweep``
    simulates nothing; it records the configs it was asked for."""

    SPEED = {"base": 1.0, "lu4": 1.2, "lu8": 1.3, "trs4": 1.25,
             "trs8": 1.35, "la": 1.1, "la+lu4": 1.28, "la+lu8": 1.33,
             "la+trs4": 1.3, "la+trs8": 1.4,
             "swp": 1.15, "la+swp": 1.25}

    def __init__(self):
        self.swept = []

    def sweep(self, benchmarks=None, schedulers=None, configs=None,
              jobs=None):
        self.swept.append(configs)
        return []

    def run(self, benchmark, scheduler, config):
        base = 100_000
        factor = self.SPEED[config]
        if scheduler == "balanced":
            cycles = int(base / factor * 0.9)
            interlock = int(5000 / factor)
        else:
            cycles = int(base / (1 + (factor - 1) * 0.5))
            interlock = 15000
        instructions = int(80_000 / (1 + (factor - 1) * 0.6))
        swp_fields = {}
        if config.endswith("swp"):
            loops = [
                {"label": ".loop1", "pipelined": True, "reason": "",
                 "n_ops": 8, "res_mii": 8, "rec_mii": 4, "mii": 8,
                 "ii": 9, "stages": 2, "unroll": 2},
                {"label": ".loop2", "pipelined": False,
                 "reason": "no-overlap", "n_ops": 3, "res_mii": 3,
                 "rec_mii": 1, "mii": 3, "ii": 3, "stages": 1,
                 "unroll": 0},
            ]
            swp_fields = dict(swp_attempted=2, swp_pipelined=1,
                              swp_mean_ii_over_mii=9 / 8,
                              swp_max_ii_over_mii=9 / 8,
                              swp_loops=loops)
        return _result(benchmark, scheduler, config, cycles, interlock,
                       instructions, **swp_fields)


@pytest.fixture
def runner():
    return StubRunner()


BENCHES = ["ARC2D", "ora"]


def test_static_tables_render():
    for table in (table1(), table2(), table3()):
        text = table.format()
        assert f"Table {table.number}" in text
        assert len(text.splitlines()) > 4


def test_table1_lists_all_benchmarks():
    assert len(table1().rows) == 17


def test_table2_includes_memory_levels():
    text = table2().format()
    for level in ("L1D", "L2", "L3", "Memory", "D-TLB"):
        assert level in text


def test_table3_latencies_match_paper():
    text = table3().format()
    assert "integer multiply" in text and "8" in text
    assert "fp divide (double)" in text and "30" in text


def test_table4_speedups_and_average(runner):
    table = table4(runner, benchmarks=BENCHES)
    assert [row[0] for row in table.rows] == BENCHES + ["AVERAGE"]
    # Stub: LU4 speedup = 1.2 for balanced.
    assert table.rows[0][2] == "1.20"
    assert table.rows[-1][2] == "1.20"


def test_table5_bs_vs_ts(runner):
    table = table5(runner, benchmarks=BENCHES)
    row = table.rows[0]
    # BSvTS at base: 100000/90000 = 1.11
    assert row[1] == "1.11"
    # Load interlock reduction: 1 - 5000/15000 = 66.7%
    assert row[4] == "66.7%"


def test_table6_columns(runner):
    table = table6(runner, benchmarks=BENCHES)
    assert len(table.headers) == 10
    # Speedup over BS alone for la+trs8 = 1.4 / 1.0 scaled.
    idx = table.headers.index("LA+TRS8")
    assert table.rows[0][idx] == "1.40"  # 90000 / (90000 / 1.4)


def test_table7_has_paper_columns(runner):
    table = table7(runner, benchmarks=BENCHES)
    assert table.headers == ["Benchmark", "No LU", "LU 4", "LU 8",
                             "TrS + LU 4", "TrS + LU 8"]
    assert table.rows[-1][0] == "AVERAGE"


def test_table8_rows(runner):
    table = table8(runner, benchmarks=BENCHES)
    labels = [row[0] for row in table.rows]
    assert labels[0] == "No optimizations"
    assert "Loop unrolling by 8" in labels
    assert table.rows[0][3] == "n.a."     # program speedup n.a. at base


def test_table9_rows(runner):
    table = table9(runner, benchmarks=BENCHES)
    assert len(table.rows) == 5
    assert table.rows[0][1] == "n.a."
    # la+lu4 vs la: (1.28/1.1)
    assert table.rows[1][1] == "1.16"


def test_table10_swp_columns(runner):
    table = table10(runner, benchmarks=BENCHES)
    assert table.headers[0] == "Benchmark"
    assert "BS SWP" in table.headers
    row = table.rows[0]
    # Stub: swp speedup for balanced = 1.15 over base.
    assert row[1] == "1.15"
    assert row[4] == "1/2"            # loops pipelined / attempted
    assert row[5] == "1.12"           # max II/MII = 9/8
    assert table.rows[-1][0] == "AVERAGE"


def test_table_configs_cover_all_tables():
    from repro.harness.tables import ALL_TABLES, TABLE_CONFIGS

    assert set(TABLE_CONFIGS) == set(ALL_TABLES)
    assert "swp" in TABLE_CONFIGS[10]


def test_format_table_alignment():
    table = Table(0, "demo", ["a", "long header"],
                  rows=[["x", "1"], ["yy", "22"]])
    lines = format_table(table).splitlines()
    assert lines[2].startswith("a ")
    assert all(len(line) <= len(lines[2]) + 14 for line in lines[3:])
