"""Fast-engine bit-identity across the full Table-6 grid.

For every (workload, config, scheduler) point of the paper's combined-
optimization grid, the compiled fast engine must agree with the
reference interpreter on cycles, the interlock split, MSHR stalls and
every final data-symbol value, and with a ``StallProfile`` attached
to both engines, on all six per-pc stall dicts.  This is the contract
that lets the harness default to the fast engine, for stall
attribution too: any drift here is a correctness bug in one of the
two engines, never an acceptable approximation.

Each workload is one test so failures localize; the grid walk shares
compiled programs between the engines (compile once, simulate three
times: profiled reference, unprofiled fast — the default engine — and
profiled fast).

The trace scheduler's profile pre-run is checked here too, at every
trace point of the grid: it runs the pre-schedule CFG on virtual
registers, and must count exactly the blocks and edges of the
register-allocated deep copy it once ran, leaving the CFG unchanged.

The points are independent, so a module fixture fans them out over a
process pool of ``REPRO_JOBS`` workers (default: the CPU count; ``1``
runs them in this process).  Each point returns the list of its
mismatches, one line per differing value, and each per-workload test
asserts that its points' lists are empty.
"""

import copy
import traceback
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.codegen.regalloc import allocate_registers
from repro.harness.experiment import options_for
from repro.harness.compile import (_collect_profile, compile_source,
                                   lower_source)
from repro.harness.tables import TABLE6_CONFIGS
from repro.machine import Simulator
from repro.obs import StallProfile
from repro.sched import ProfileData
from repro.workloads import WORKLOAD_ORDER, WORKLOADS

GRID_CONFIGS = ("base",) + tuple(TABLE6_CONFIGS)

CHECKED_FIELDS = (
    "total_cycles", "instructions",
    "load_interlock_cycles", "fixed_interlock_cycles",
    "icache_stall_cycles", "branch_stall_cycles", "mshr_stall_cycles",
    "spill_loads", "spill_stores",
    "loads", "stores", "branches",
    "short_int", "long_int", "short_fp", "long_fp",
    "dtlb_misses", "itlb_misses", "branch_mispredicts",
)

PROFILE_FIELDS = ("exec_counts", "load_interlock", "fixed_interlock",
                  "load_hits", "load_misses", "mshr_stalls")


POINTS = [(name, config, scheduler) for name in WORKLOAD_ORDER
          for config in GRID_CONFIGS
          for scheduler in ("balanced", "traditional")]


def _engine_mismatches(name, config, scheduler):
    """Compile one grid point; run the profiled interpreter, the fast
    engine and the profiled fast engine; list what differs."""
    program = compile_source(WORKLOADS[name].source,
                             options_for(scheduler, config), name).program
    ref_profile, profile = StallProfile(), StallProfile()
    ref = Simulator(program, mode="reference", stall_profile=ref_profile)
    ref.run()
    fast = Simulator(program, mode="fast")
    fast.run()
    profiled = Simulator(program, mode="fast", stall_profile=profile)
    profiled.run()
    point = f"{name}/{config}/{scheduler}"
    found = []
    for engine, sim in (("fast", fast), ("profiled fast", profiled)):
        if sim.mode_used != "fast":
            found.append(f"{point}: {engine} ran on {sim.mode_used}")
        for field in CHECKED_FIELDS:
            got = getattr(sim.metrics, field)
            want = getattr(ref.metrics, field)
            if got != want:
                found.append(f"{point}: {engine} {field} {got} != {want}")
        for level in ("l1d", "l1i", "l2", "l3"):
            got = vars(getattr(sim.metrics, level))
            want = vars(getattr(ref.metrics, level))
            if got != want:
                found.append(f"{point}: {engine} {level} {got} != {want}")
        for symbol in program.symbols:
            if sim.get_symbol(symbol) != ref.get_symbol(symbol):
                found.append(f"{point}: {engine} symbol {symbol} differs")
    for field in PROFILE_FIELDS:
        if getattr(profile, field) != getattr(ref_profile, field):
            found.append(f"{point}: profiled fast {field} differs")
    return found


def _allocated_profile(cfg, options):
    """The reference pre-run: profile a register-allocated deep copy."""
    snapshot = copy.deepcopy(cfg)
    allocate_registers(snapshot)
    sim = Simulator(snapshot.linearize(), config=options.config,
                    mode="profile")
    sim.run()
    return ProfileData(block_counts=dict(sim.block_counts),
                       edge_counts=dict(sim.edge_counts))


def _prerun_mismatches(name, config, scheduler):
    """The trace pre-run at one trace point against the allocated copy."""
    options = options_for(scheduler, config)
    cfg, _, _ = lower_source(WORKLOADS[name].source, options, name)
    before = cfg.format()
    point = f"{name}/{config}/{scheduler}"
    found = []
    got = _collect_profile(cfg, options)
    want = _allocated_profile(cfg, options)
    if got != want:
        found.append(f"{point}: pre-run profile {got} != {want}")
    if cfg.format() != before:
        found.append(f"{point}: the pre-run changed the CFG")
    return found


CHECKS = {"engine": _engine_mismatches, "prerun": _prerun_mismatches}


def _check(task):
    """One point's mismatches; an exception is one, with its traceback."""
    check, point = task
    try:
        return CHECKS[check](*point)
    except Exception:
        return [f"{'/'.join(point)}: {check} raised\n"
                f"{traceback.format_exc()}"]


@pytest.fixture(scope="module")
def mismatches(jobs):
    """Mismatch lists by (check, workload), over every point."""
    tasks = [("engine", point) for point in POINTS]
    tasks += [("prerun", point) for point in POINTS
              if options_for(point[2], point[1]).trace]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_check, tasks))
    else:
        results = [_check(task) for task in tasks]
    found = {(check, name): [] for check in CHECKS
             for name in WORKLOAD_ORDER}
    for (check, point), result in zip(tasks, results):
        found[check, point[0]].extend(result)
    return found


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_fast_matches_reference_on_table6_grid(name, mismatches):
    assert mismatches[("engine", name)] == []


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_profile_prerun_matches_allocated_copy(name, mismatches):
    assert mismatches[("prerun", name)] == []
