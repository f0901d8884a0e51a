"""Mutation tests: every validator is proven live by a seeded pass bug.

Each test monkeypatches one pipeline pass (in the
``repro.harness.compile`` namespace, where :func:`compile_source`
resolves them) into a deliberately buggy version, compiles a real
program with validation enabled, and asserts the compile dies with a
:class:`~repro.check.CheckError` whose diagnostics name the seeded
bug's rule (M5: with the inline kernel replay's
:class:`~repro.codegen.verify.VerificationError`).  A validator none
of these bugs can trip would be dead weight; this file is the proof
each one pays its way.
"""

import pytest

import repro.harness.compile as hc
from repro.check import CheckError, PipelineValidator
from repro.codegen.verify import VerificationError
from repro.harness.compile import Options
from repro.isa import ZERO, Instruction, ireg

from tests.conftest import SMALL_KERNEL

DAXPY = """
array X[64] : float;
array Y[64] : float;
var a : float = 1.5;

func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { X[i] = float(i) * 0.25; }
    for (i = 0; i < 64; i = i + 1) { Y[i] = a * X[i] + Y[i]; }
}
"""


def compile_checked(source=SMALL_KERNEL, options=Options()):
    validator = PipelineValidator(mode="raise")
    return hc.compile_source(source, options, "mutant",
                             validator=validator)


def assert_caught(rule, source=SMALL_KERNEL, options=Options()):
    with pytest.raises(CheckError) as excinfo:
        compile_checked(source, options)
    found = {d.rule for d in excinfo.value.diagnostics}
    assert rule in found, f"expected {rule}, got {sorted(found)}"
    return excinfo.value


# M1: an alias-blind scheduler reorders a store past a dependent load.
def test_alias_blind_scheduler_is_caught(monkeypatch):
    real = hc.schedule_cfg

    def blind(cfg, model, observer=None, **kw):
        real(cfg, model)
        for block in cfg:
            body = block.body
            for i, instr in enumerate(body):
                if not instr.is_store:
                    continue
                for j in range(i + 1, len(body)):
                    other = body[j]
                    if (other.is_load and other.mem is not None
                            and instr.mem is not None
                            and instr.mem.conflicts_with(other.mem)):
                        body[i], body[j] = body[j], body[i]
                        block.instrs[:len(body)] = body
                        return
        raise AssertionError("no store/load pair to corrupt")

    monkeypatch.setattr(hc, "schedule_cfg", blind)
    assert_caught("dependence-order")


# M2: a bad unroll/cleanup retargets a branch to a label that does not
# exist (the classic stale-remainder-branch bug).
def test_branch_to_unknown_label_is_caught(monkeypatch):
    real = hc.eliminate_dead_code

    def retarget(cfg):
        real(cfg)
        for block in cfg:
            term = block.terminator
            if term is not None and term.is_branch:
                term.label = ".does-not-exist"
                return
        raise AssertionError("no branch to corrupt")

    monkeypatch.setattr(hc, "eliminate_dead_code", retarget)
    error = assert_caught("cfg-structure")
    assert any(d.pass_name == "opt.dce"
               for d in error.diagnostics), "wrong boundary blamed"


# M3: an over-eager DCE deletes a definition whose value is still used.
def test_deleted_live_def_is_caught(monkeypatch):
    real = hc.eliminate_dead_code

    def overeager(cfg):
        real(cfg)
        used = {reg for block in cfg for ins in block.instrs
                for reg in ins.uses()}
        for block in cfg:
            for index, ins in enumerate(block.instrs):
                if ins.defs() and ins.defs()[0] in used \
                        and not ins.is_branch:
                    del block.instrs[index]
                    return
        raise AssertionError("no live def to delete")

    monkeypatch.setattr(hc, "eliminate_dead_code", overeager)
    assert_caught("use-before-def")


# M4: the allocator assigns two live-range-overlapping virtuals to one
# physical register (clobbered live value).
def test_allocator_clobber_is_caught(monkeypatch):
    real = hc.allocate_registers

    def clobber(cfg):
        from repro.check import capture_intervals

        intervals = capture_intervals(cfg)   # before the rewrite
        allocation = real(cfg)
        live = [(vreg, phys) for vreg, phys in
                allocation.assignment.items()
                if vreg not in allocation.spilled]
        for i, (v1, p1) in enumerate(live):
            for v2, p2 in live[i + 1:]:
                if p1 is p2 or v1.kind != v2.kind:
                    continue
                s1, e1 = intervals[v1]
                s2, e2 = intervals[v2]
                if max(s1, s2) <= min(e1, e2):    # genuinely overlap
                    allocation.assignment[v2] = p1
                    return allocation
        raise AssertionError("no overlapping pair to clobber")

    monkeypatch.setattr(hc, "allocate_registers", clobber)
    assert_caught("register-clobber")


# M5: modulo scheduling emits a kernel whose memory order breaks the
# loop's cross-iteration dependences.
def test_corrupt_pipelined_kernel_is_caught(monkeypatch):
    real_pipeline = hc.pipeline_loops

    def corrupt(cfg, config, model):
        stats = real_pipeline(cfg, config, model)
        assert stats.kernels, "expected a pipelined loop"
        kernel = cfg.blocks[stats.kernels[0].kernel_label]
        mems = [i for i, ins in enumerate(kernel.instrs) if ins.is_mem]
        assert len(mems) >= 2, "kernel too small to corrupt"
        a, b = mems[0], mems[-1]
        kernel.instrs[a], kernel.instrs[b] = \
            kernel.instrs[b], kernel.instrs[a]
        return stats

    monkeypatch.setattr(hc, "pipeline_loops", corrupt)
    # compile_source replays every doubled kernel right after the
    # pipeliner, before any validator boundary.
    with pytest.raises(VerificationError):
        compile_checked(DAXPY, Options(swp=True))


# M6: a transform creates a second entry into a loop body, making the
# CFG irreducible (broken unroll/peel splicing).
def test_irreducible_loop_entry_is_caught(monkeypatch):
    real = hc.eliminate_dead_code

    def second_entry(cfg):
        real(cfg)
        # Splice in a two-block cycle mutA <-> mutB entered from two
        # different predecessors -- the canonical irreducible pair no
        # single header dominates.
        from repro.ir import BasicBlock

        host = next(b for b in cfg
                    if b.terminator is not None
                    and b.terminator.op == "HALT")
        cfg.add_block(BasicBlock("mutA",
                                 [Instruction("BR", label="mutB")]))
        cfg.add_block(BasicBlock("mutB",
                                 [Instruction("BR", label="mutA")]))
        # The taken edge enters the cycle at mutB, the fallthrough at
        # mutA -- so neither cycle block dominates the other.
        host.instrs[-1] = Instruction("BNE", srcs=(ZERO,),
                                      label="mutB")
        host.fallthrough = "mutA"

    monkeypatch.setattr(hc, "eliminate_dead_code", second_entry)
    assert_caught("irreducible-loop")


# M7: the scheduler silently drops an instruction.
def test_dropped_instruction_is_caught(monkeypatch):
    real = hc.schedule_cfg

    def dropper(cfg, model, observer=None, **kw):
        real(cfg, model)
        for block in cfg:
            if len(block.body) > 1:
                del block.instrs[0]
                return
        raise AssertionError("no block to corrupt")

    monkeypatch.setattr(hc, "schedule_cfg", dropper)
    assert_caught("schedule-permutation")


# M8: a cleanup pass leaks a physical register before allocation.
def test_premature_physical_register_is_caught(monkeypatch):
    real = hc.fold_constants

    def leaker(cfg):
        real(cfg)
        block = cfg.blocks[cfg.entry]
        block.instrs.insert(0, Instruction("LDI", dest=ireg(5), imm=1))

    monkeypatch.setattr(hc, "fold_constants", leaker)
    error = assert_caught("register-discipline")
    assert any(d.pass_name == "opt.constfold"
               for d in error.diagnostics), "wrong boundary blamed"


def test_unmutated_compiles_are_clean():
    """Control: the same programs pass when nothing is seeded."""
    compile_checked(SMALL_KERNEL, Options())
    compile_checked(DAXPY, Options(swp=True))
