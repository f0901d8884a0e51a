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
"""

import copy

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


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_fast_matches_reference_on_table6_grid(name):
    workload = WORKLOADS[name]
    for config in GRID_CONFIGS:
        for scheduler in ("balanced", "traditional"):
            program = compile_source(
                workload.source, options_for(scheduler, config),
                name).program
            ref_profile, profile = StallProfile(), StallProfile()
            ref = Simulator(program, mode="reference",
                            stall_profile=ref_profile)
            ref.run()
            fast = Simulator(program, mode="fast")
            fast.run()
            profiled = Simulator(program, mode="fast",
                                 stall_profile=profile)
            profiled.run()
            point = f"{name}/{config}/{scheduler}"
            for sim in (fast, profiled):
                assert sim.mode_used == "fast", point
                for field in CHECKED_FIELDS:
                    assert getattr(sim.metrics, field) == \
                        getattr(ref.metrics, field), (point, field)
                for level in ("l1d", "l1i", "l2", "l3"):
                    assert vars(getattr(sim.metrics, level)) == \
                        vars(getattr(ref.metrics, level)), (point, level)
                for symbol in program.symbols:
                    assert sim.get_symbol(symbol) == \
                        ref.get_symbol(symbol), (point, symbol)
            for field in PROFILE_FIELDS:
                assert getattr(profile, field) == \
                    getattr(ref_profile, field), (point, field)


def _allocated_profile(cfg, options):
    """The reference pre-run: profile a register-allocated deep copy."""
    snapshot = copy.deepcopy(cfg)
    allocate_registers(snapshot)
    sim = Simulator(snapshot.linearize(), config=options.config,
                    profile=True, mode="profile")
    sim.run()
    return ProfileData(block_counts=dict(sim.block_counts),
                       edge_counts=dict(sim.edge_counts))


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_profile_prerun_matches_allocated_copy(name):
    workload = WORKLOADS[name]
    for config in GRID_CONFIGS:
        for scheduler in ("balanced", "traditional"):
            options = options_for(scheduler, config)
            if not options.trace:
                continue
            cfg, _, _ = lower_source(workload.source, options, name)
            before = cfg.format()
            point = f"{name}/{config}/{scheduler}"
            assert _collect_profile(cfg, options) == \
                _allocated_profile(cfg, options), point
            assert cfg.format() == before, point
