"""Compiled fast engine: bit-identity vs. the reference interpreter,
MSHR bookkeeping under the heap, and the engine selection API (mode=,
REPRO_SIM)."""

from __future__ import annotations

import pytest

from repro.harness.compile import Options, compile_source
from repro.isa import DataSymbol, Instruction, assemble, freg, ireg, Reg
from repro.machine import DEFAULT_CONFIG, SimulationError, Simulator
from tests.conftest import SMALL_KERNEL, STENCIL_KERNEL


def v(i, kind="i"):
    return Reg(kind, i, virtual=True)


def sym(name="A", address=64, elems=16, is_fp=True):
    return {name: DataSymbol(name=name, address=address,
                             size_bytes=elems * 8, is_fp=is_fp,
                             dims=(elems,))}


def assemble_instrs(instrs, symbols=None):
    return assemble([("entry", list(instrs) + [Instruction("HALT")])],
                    symbols=symbols,
                    data_size=max((s.address + s.size_bytes
                                   for s in (symbols or {}).values()),
                                  default=0))


def state_dict(sim):
    """Every contractual observable: metrics counters (including the
    nested cache/TLB stats), final memory, final registers."""
    d = {}
    for key, value in vars(sim.metrics).items():
        if hasattr(value, "__dict__"):
            for k2, v2 in vars(value).items():
                d[f"{key}.{k2}"] = v2
        elif isinstance(value, (int, float)):
            d[key] = value
    d["memory"] = list(sim.memory)
    d["regs"] = list(sim.regs)
    return d


def run_both(program, config=DEFAULT_CONFIG, arrays=None):
    sims = []
    for mode in ("reference", "fast"):
        sim = Simulator(program, config=config, mode=mode)
        for name, values in (arrays or {}).items():
            sim.set_symbol(name, values)
        sim.run()
        assert sim.mode_used == mode
        sims.append(sim)
    return sims


def assert_identical(program, config=DEFAULT_CONFIG, arrays=None):
    ref, fast = run_both(program, config=config, arrays=arrays)
    assert state_dict(ref) == state_dict(fast)
    return ref, fast


class TestBitIdentity:
    @pytest.mark.parametrize("scheduler", ["balanced", "traditional"])
    @pytest.mark.parametrize("source", [SMALL_KERNEL, STENCIL_KERNEL],
                             ids=["small", "stencil"])
    def test_compiled_kernels(self, source, scheduler):
        program = compile_source(
            source, Options(scheduler=scheduler)).program
        assert_identical(program)

    def test_unrolled_kernel(self):
        program = compile_source(
            SMALL_KERNEL, Options(scheduler="balanced",
                                  unroll=4)).program
        assert_identical(program)

    def test_mshr_pressure(self):
        """More concurrent misses than MSHRs: the heap-based occupancy
        bookkeeping must reproduce the interpreter's stall cycles."""
        symbols = {"BIG": DataSymbol(name="BIG", address=64,
                                     size_bytes=64 * 1024, is_fp=True,
                                     dims=(8192,))}
        instrs = [Instruction("LDI", dest=v(0), imm=64)]
        for i in range(DEFAULT_CONFIG.mshr_entries + 4):
            instrs.append(Instruction("FLD", dest=v(1 + i, "f"),
                                      srcs=(v(0),), offset=i * 4096))
        program = assemble_instrs(instrs, symbols=symbols)
        ref, fast = assert_identical(program)
        assert fast.metrics.mshr_stall_cycles > 0

    def test_mshr_merge_same_line(self):
        """A second miss to an in-flight line merges into the existing
        MSHR (no new entry, no stall) in both engines."""
        symbols = {"BIG": DataSymbol(name="BIG", address=64,
                                     size_bytes=64 * 1024, is_fp=True,
                                     dims=(8192,))}
        instrs = [
            Instruction("LDI", dest=v(0), imm=64),
            Instruction("FLD", dest=v(1, "f"), srcs=(v(0),), offset=0),
            # Same 32-byte line, still in flight: merges.
            Instruction("FLD", dest=v(2, "f"), srcs=(v(0),), offset=8),
            Instruction("FADD", dest=v(3, "f"),
                        srcs=(v(1, "f"), v(2, "f"))),
        ]
        program = assemble_instrs(instrs, symbols=symbols)
        ref, fast = assert_identical(program)
        assert fast.metrics.l1d.misses == 1

    @pytest.mark.parametrize("stride", [0, 64], ids=["converged",
                                                     "streaming"])
    def test_scalar_loop(self, stride):
        """A 200-trip scalar reduction loop.  With stride 0 its load
        hits one resident line once cache, TLB and predictor state
        converge; with a 64-byte stride every load misses L1 and the
        walk crosses a page and wraps the direct-mapped L1."""
        trips = 200
        elems = 8 + trips * stride // 8
        body = [
            Instruction("FLD", dest=v(3, "f"), srcs=(v(0),), offset=0),
            Instruction("FADD", dest=v(2, "f"),
                        srcs=(v(2, "f"), v(3, "f"))),
        ]
        if stride:
            body.append(Instruction("ADD", dest=v(0), srcs=(v(0),),
                                    imm=stride))
        body += [
            Instruction("ADD", dest=v(1), srcs=(v(1),), imm=1),
            Instruction("CMPLT", dest=v(4), srcs=(v(1),), imm=trips),
            Instruction("BNE", srcs=(v(4),), label="loop"),
            Instruction("HALT"),
        ]
        program = assemble([
            ("entry", [
                Instruction("LDI", dest=v(0), imm=64),
                Instruction("LDI", dest=v(1), imm=0),
                Instruction("FLDI", dest=v(2, "f"), imm=0.0),
            ]),
            ("loop", body),
        ], symbols=sym(elems=elems), data_size=64 + elems * 8)
        ref, fast = assert_identical(
            program, arrays={"A": [float(i) for i in range(elems)]})
        assert fast.metrics.l1d.misses == (trips if stride else 1)


class TestZeroRegisterScratch:
    def test_prefetch_then_zero_dest_cmov_no_phantom_interlock(self):
        """A discarded load (prefetch idiom) followed by a zero-dest
        CMOV must not charge interlock cycles against the discarded
        value (regression: the shared scratch slot used to receive
        ready-time updates)."""
        instrs = [
            Instruction("LDI", dest=v(0), imm=64),
            Instruction("LDI", dest=v(1), imm=7),
            # Prefetch: load whose result is architecturally discarded.
            Instruction("LD", dest=ireg(31), srcs=(v(0),), offset=0),
            # Zero-dest CMOV reads its (discarded) destination.
            Instruction("CMOVNE", dest=ireg(31), srcs=(v(1), v(1))),
        ]
        program = assemble_instrs(instrs, symbols=sym(is_fp=False))
        for mode in ("reference", "fast"):
            sim = Simulator(program, mode=mode)
            metrics = sim.run()
            assert metrics.load_interlock_cycles == 0, mode
            assert metrics.fixed_interlock_cycles == 0, mode

    def test_int_and_fp_discards_do_not_collide(self):
        """An integer discard and an fp discard use separate slots: the
        fp zero-dest consumer cannot see the int discard's value or
        timing."""
        instrs = [
            Instruction("LDI", dest=v(0), imm=64),
            Instruction("LD", dest=ireg(31), srcs=(v(0),), offset=0),
            Instruction("FLDI", dest=v(1, "f"), imm=2.0),
            Instruction("FCMOVNE", dest=freg(31),
                        srcs=(v(1, "f"), v(1, "f"))),
        ]
        program = assemble_instrs(instrs, symbols=sym(is_fp=False))
        for mode in ("reference", "fast"):
            metrics = Simulator(program, mode=mode).run()
            assert metrics.load_interlock_cycles == 0, mode

    def test_zero_reg_still_reads_zero(self):
        instrs = [
            Instruction("LDI", dest=v(0), imm=64),
            Instruction("LD", dest=ireg(31), srcs=(v(0),), offset=0),
            Instruction("SUB", dest=v(1), srcs=(ireg(31), v(0))),
        ]
        program = assemble_instrs(instrs, symbols=sym(is_fp=False))
        for mode in ("reference", "fast"):
            sim = Simulator(program, mode=mode)
            sim.run()
            assert sim.reg_value(v(1)) == -64, mode


class TestRunContract:
    def test_run_is_single_shot(self):
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        sim = Simulator(program)
        sim.run()
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()

    def test_single_shot_applies_to_reference_mode(self):
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        sim = Simulator(program, mode="reference")
        sim.run()
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()

    def test_failed_run_counts_as_the_single_shot(self):
        program = assemble([("loop", [Instruction("BR",
                                                  label="loop")])])
        sim = Simulator(program)
        with pytest.raises(SimulationError):
            sim.run(max_instructions=100)
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()


class TestModeSelection:
    def test_env_forces_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM", "reference")
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        sim = Simulator(program)
        sim.run()
        assert sim.mode_used == "reference"

    def test_env_rejects_unknown_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM", "turbo")
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        with pytest.raises(ValueError, match="REPRO_SIM"):
            Simulator(program).run()

    def test_explicit_fast_rejects_unsupported_config(self):
        from dataclasses import replace

        config = replace(DEFAULT_CONFIG, issue_width=2)
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        with pytest.raises(ValueError, match="fast"):
            Simulator(program, config=config, mode="fast").run()

    def test_auto_falls_back_for_unsupported_config(self):
        from dataclasses import replace

        config = replace(DEFAULT_CONFIG, issue_width=2)
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        sim = Simulator(program, config=config)
        sim.run()
        assert sim.mode_used == "reference"

    def test_profile_mode_requires_profile_flag(self):
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        with pytest.raises(ValueError, match="profile"):
            Simulator(program, mode="profile")

    def test_profile_mode_matches_reference_counts(self):
        program = compile_source(
            SMALL_KERNEL, Options(scheduler="none")).program
        fast = Simulator(program, profile=True, mode="profile")
        fast.run()
        ref = Simulator(program, profile=True, mode="reference")
        ref.run()
        assert fast.mode_used == "profile"
        assert fast.block_counts == ref.block_counts
        assert fast.edge_counts == ref.edge_counts
        assert fast.memory == ref.memory
