"""Pressure feedback trades spills without costing cycles (balanced lu8).

``Options(unroll=8, pressure=True)`` demotes boosted loads only in
blocks whose trial schedule overflows a register bank, measured the
way the allocator counts.  Over the 17 benchmarks it must cut dynamic
spill traffic against plain balanced lu8 and keep the geometric-mean
cycle ratio within 1%.  The plain points come from the suite's shared
``runner`` fixture (prewarmed with the rest of the grid); only the 17
feedback points are compiled and simulated here.
"""

from repro.harness import geometric_mean
from repro.harness.compile import Options, compile_and_run
from repro.workloads import WORKLOAD_ORDER, WORKLOADS


def test_pressure_feedback_trades_spills_without_cycles(runner):
    ratios, spills_plain, spills_fed = [], 0, 0
    for name in WORKLOAD_ORDER:
        plain = runner.run(name, "balanced", "lu8")
        _, fed = compile_and_run(WORKLOADS[name].source,
                                 Options(unroll=8, pressure=True), name)
        spills_plain += plain.spill_loads + plain.spill_stores
        spills_fed += fed.spill_loads + fed.spill_stores
        ratios.append(fed.total_cycles / plain.total_cycles)
    geomean = geometric_mean(ratios)
    print(f"spills {spills_plain} -> {spills_fed}, "
          f"geomean cycle ratio {geomean:.4f}")
    assert spills_fed < spills_plain, "no spill reduction"
    assert geomean <= 1.01, f"geomean {geomean:.4f} > 1.01"
