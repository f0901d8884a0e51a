"""Register allocation: correctness, spilling, conventions."""

from repro.codegen.lower import lower
from repro.codegen.regalloc import allocate_registers
from repro.frontend import frontend
from repro.harness.compile import Options, compile_source
from repro.isa import ALLOCATABLE
from repro.machine import Simulator
from repro.sched import BalancedWeights, schedule_cfg


def lower_and_allocate(source: str):
    cfg = lower(frontend(source))
    result = allocate_registers(cfg)
    return cfg, result


def test_no_virtual_registers_remain():
    cfg, _ = lower_and_allocate("""
array A[8] : float;
func main() {
    var i : int;
    for (i = 0; i < 8; i = i + 1) { A[i] = float(i) * 2.0; }
}
""")
    for block in cfg:
        for instr in block.instrs:
            for reg in instr.uses() + instr.defs():
                assert not reg.virtual, instr.format()


def test_reserved_registers_never_allocated():
    source = "\n".join(
        [f"array A{k}[4] : float;" for k in range(4)]
        + ["func main() {", "    var i : int;",
           "    for (i = 0; i < 4; i = i + 1) {"]
        + [f"        A{k}[i] = float(i + {k});" for k in range(4)]
        + ["    }", "}"])
    cfg, _ = lower_and_allocate(source)
    for block in cfg:
        for instr in block.instrs:
            for reg in instr.defs():
                if instr.is_spill:
                    continue
                assert reg.num < ALLOCATABLE[reg.kind], instr.format()


def _pressure_source(n_values: int) -> str:
    """A program with n simultaneously live float scalars."""
    decls = "\n".join(f"    var t{k} : float;" for k in range(n_values))
    inits = "\n".join(f"    t{k} = float(i + {k}) * 1.5;"
                      for k in range(n_values))
    total = " + ".join(f"t{k}" for k in range(n_values))
    return f"""
array OUT[4] : float;
var n : int = 4;
func main() {{
    var i : int;
{decls}
    for (i = 0; i < n; i = i + 1) {{
{inits}
        OUT[i] = {total};
    }}
}}
"""


def test_no_spills_below_register_count():
    cfg, result = lower_and_allocate(_pressure_source(10))
    assert result.n_slots == 0


def test_spills_generated_when_bank_exhausted():
    # Allocate the *unscheduled* code: all 40 values are live at once
    # (the pressure-aware scheduler would interleave them away).
    source = _pressure_source(40)
    cfg = lower(frontend(source))
    result = allocate_registers(cfg)
    assert result.n_slots > 0
    program = cfg.linearize()
    spill_stores = [i for i in program.instructions
                    if i.is_store and i.is_spill]
    spill_loads = [i for i in program.instructions
                   if i.is_load and i.is_spill]
    assert spill_stores and spill_loads


def test_spilled_program_still_correct():
    source = _pressure_source(40)
    result = compile_source(source, Options(scheduler="none"))
    sim = Simulator(result.program)
    sim.run()
    expected = [sum((i + k) * 1.5 for k in range(40)) for i in range(4)]
    assert sim.get_symbol("OUT") == expected


def test_spill_slots_distinct_memrefs():
    source = _pressure_source(40)
    cfg = lower(frontend(source))
    allocate_registers(cfg)
    slots = set()
    for block in cfg:
        for instr in block.instrs:
            if instr.is_spill:
                assert instr.mem.region == "stack"
                slots.add(instr.mem.symbol)
    assert len(slots) >= 2


def test_allocation_matches_virtual_execution(small_kernel_source):
    """Virtual-register and allocated code compute identical results."""
    cfg = lower(frontend(small_kernel_source))
    virtual_sim = Simulator(cfg.linearize())
    virtual_sim.run()
    cfg2 = lower(frontend(small_kernel_source))
    allocate_registers(cfg2)
    allocated_sim = Simulator(cfg2.linearize())
    allocated_sim.run()
    assert virtual_sim.get_symbol("total") == \
        allocated_sim.get_symbol("total")
    assert virtual_sim.get_symbol("B") == allocated_sim.get_symbol("B")
