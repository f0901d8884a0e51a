"""Compiled fast engine: bit-identity vs. the reference interpreter
(stall attribution included), MSHR bookkeeping under the heap, the
engine selection API (mode=), and the build's structural
memory properties."""

from __future__ import annotations

import gc
import re
import weakref
from dataclasses import replace

import pytest

from repro.harness.compile import Options, compile_source
from repro.isa import DataSymbol, Instruction, assemble, freg, ireg, Reg
from repro.machine import (DEFAULT_CONFIG, SimulationError, Simulator,
                           fastsim)
from repro.machine.config import simple_stochastic_config
from repro.obs import StallProfile
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


def big_symbol():
    return {"BIG": DataSymbol(name="BIG", address=64,
                              size_bytes=64 * 1024, is_fp=True,
                              dims=(8192,))}


def mshr_pressure_program():
    """More independent misses than MSHRs, each on its own page."""
    instrs = [Instruction("LDI", dest=v(0), imm=64)]
    for i in range(DEFAULT_CONFIG.mshr_entries + 4):
        instrs.append(Instruction("FLD", dest=v(1 + i, "f"),
                                  srcs=(v(0),), offset=i * 4096))
    return assemble_instrs(instrs, symbols=big_symbol())


def mshr_merge_program():
    """Two loads of one line; their sum waits for both (pc 3)."""
    return assemble_instrs([
        Instruction("LDI", dest=v(0), imm=64),
        Instruction("FLD", dest=v(1, "f"), srcs=(v(0),), offset=0),
        # Same 32-byte line, still in flight: merges.
        Instruction("FLD", dest=v(2, "f"), srcs=(v(0),), offset=8),
        Instruction("FADD", dest=v(3, "f"),
                    srcs=(v(1, "f"), v(2, "f"))),
    ], symbols=big_symbol())


def mshr_line_program():
    """A miss at byte 64, a load at byte 72 (the same L1D line at 16,
    32 and 64 bytes), and a use of the second load only."""
    return assemble_instrs([
        Instruction("LDI", dest=v(0), imm=64),
        Instruction("FLD", dest=v(1, "f"), srcs=(v(0),), offset=0),
        Instruction("FLD", dest=v(2, "f"), srcs=(v(0),), offset=8),
        Instruction("FMOV", dest=v(3, "f"), srcs=(v(2, "f"),)),
    ], symbols=big_symbol())


def line_config(level, line_bytes, **changes):
    """DEFAULT_CONFIG with *level*'s line size (and other fields) changed."""
    return replace(DEFAULT_CONFIG, **{level: replace(
        getattr(DEFAULT_CONFIG, level), line_bytes=line_bytes)}, **changes)


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
        ref, fast = assert_identical(mshr_pressure_program())
        assert fast.metrics.mshr_stall_cycles > 0

    def test_mshr_merge_same_line(self):
        """A second miss to an in-flight line merges into the existing
        MSHR (no new entry, no stall) in both engines."""
        ref, fast = assert_identical(mshr_merge_program())
        assert fast.metrics.l1d.misses == 1

    @pytest.mark.parametrize("line", [16, 64])
    def test_mshr_merge_at_other_l1d_line_sizes(self, line):
        """Both engines key MSHRs by the L1D line: the second load merges
        into the in-flight miss, and its use waits exactly as long as at
        the default 32-byte line."""
        ref, fast = assert_identical(mshr_line_program(),
                                     line_config("l1d", line))
        default = Simulator(mshr_line_program(), mode="reference")
        assert fast.metrics.total_cycles == default.run().total_cycles

    @pytest.mark.parametrize("line", [16, 32, 64])
    def test_fetch_probes_every_icache_line(self, line):
        """64 NOPs and a HALT: one L1I probe per I-line and one I-TLB
        miss per 128-byte I-page, whatever the L1I line size."""
        itlb = replace(DEFAULT_CONFIG.itlb, page_bytes=128)
        program = assemble_instrs([Instruction("NOP")] * 64)
        ref, fast = assert_identical(program,
                                     line_config("l1i", line, itlb=itlb))
        size = len(program) * 4
        for sim in (ref, fast):
            assert sim.metrics.l1i.accesses == (size - 1) // line + 1
            assert sim.metrics.l1i.misses == sim.metrics.l1i.accesses
            assert sim.metrics.itlb_misses == (size - 1) // 128 + 1

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
    def test_explicit_fast_rejects_unsupported_config(self):
        from dataclasses import replace

        config = replace(DEFAULT_CONFIG, issue_width=2)
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        with pytest.raises(ValueError, match="fast"):
            Simulator(program, config=config, mode="fast").run()

    def test_explicit_fast_runs_with_a_stall_profile(self):
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        profile = StallProfile()
        sim = Simulator(program, stall_profile=profile, mode="fast")
        sim.run()
        assert sim.mode_used == "fast"
        assert profile.exec_counts == {0: 1, 1: 1}

    def test_auto_falls_back_for_unsupported_config(self):
        from dataclasses import replace

        config = replace(DEFAULT_CONFIG, issue_width=2)
        program = assemble_instrs([Instruction("LDI", dest=v(0),
                                               imm=1)])
        sim = Simulator(program, config=config)
        sim.run()
        assert sim.mode_used == "reference"

    def test_profile_mode_matches_reference_counts(self):
        program = compile_source(
            SMALL_KERNEL, Options(scheduler="none")).program
        fast = Simulator(program, mode="profile")
        fast.run()
        ref = Simulator(program, profile=True, mode="reference")
        ref.run()
        assert fast.mode_used == "profile"
        assert fast.block_counts == ref.block_counts
        assert fast.edge_counts == ref.edge_counts
        assert fast.memory == ref.memory


PROFILE_FIELDS = ("exec_counts", "load_interlock", "fixed_interlock",
                  "load_hits", "load_misses", "mshr_stalls")


def assert_profiles_identical(program, config=DEFAULT_CONFIG):
    """Run both engines with a StallProfile attached; every metrics
    counter, final state and all six per-pc dicts must agree."""
    runs = []
    for mode in ("reference", "fast"):
        profile = StallProfile()
        sim = Simulator(program, config=config, stall_profile=profile,
                        mode=mode)
        sim.run()
        assert sim.mode_used == mode
        runs.append((sim, profile))
    (ref, ref_profile), (fast, profile) = runs
    assert state_dict(ref) == state_dict(fast)
    for field in PROFILE_FIELDS:
        assert getattr(profile, field) == getattr(ref_profile, field), \
            field
    m = fast.metrics
    assert profile.total_load_interlock == m.load_interlock_cycles
    assert profile.total_fixed_interlock == m.fixed_interlock_cycles
    assert sum(profile.mshr_stalls.values()) == m.mshr_stall_cycles
    assert sum(profile.exec_counts.values()) == m.instructions
    return fast, profile


class TestStallAttribution:
    """The fast engine's per-pc attribution equals the interpreter's."""

    @pytest.mark.parametrize("scheduler", ["balanced", "traditional"])
    @pytest.mark.parametrize("source", [SMALL_KERNEL, STENCIL_KERNEL],
                             ids=["small", "stencil"])
    def test_compiled_kernels(self, source, scheduler):
        program = compile_source(
            source, Options(scheduler=scheduler, unroll=4)).program
        fast, profile = assert_profiles_identical(program)
        assert profile.load_interlock and profile.fixed_interlock

    def test_miss_merge_tie_goes_to_the_later_load(self):
        """Both loads of one line are ready in the same cycle: the
        later one (pc 2) takes the whole stall of their sum."""
        fast, profile = assert_profiles_identical(mshr_merge_program())
        assert list(profile.load_interlock) == [2]
        assert profile.fixed_interlock == {}

    def test_mshr_full_charges(self):
        """A load stalled on a full MSHR file charges itself, in both
        mshr_stalls and load_interlock."""
        fast, profile = assert_profiles_identical(
            mshr_pressure_program())
        assert profile.mshr_stalls
        for pc, cycles in profile.mshr_stalls.items():
            assert profile.load_interlock[pc] >= cycles

    def test_producers_in_an_earlier_block(self):
        """Operands produced before a branch are charged through the
        per-slot producer list: a load (pc 1) and a fixed-latency
        multiply (pc 3) stall consumers in the next block."""
        program = assemble([
            ("entry", [
                Instruction("LDI", dest=v(0), imm=64),
                Instruction("FLD", dest=v(1, "f"), srcs=(v(0),)),
                Instruction("FLDI", dest=v(5, "f"), imm=2.0),
                Instruction("FMUL", dest=v(2, "f"),
                            srcs=(v(5, "f"), v(5, "f"))),
                Instruction("BR", label="next"),
            ]),
            ("next", [
                Instruction("FADD", dest=v(3, "f"),
                            srcs=(v(2, "f"), v(2, "f"))),
                Instruction("FADD", dest=v(4, "f"),
                            srcs=(v(1, "f"), v(3, "f"))),
                Instruction("HALT"),
            ]),
        ], symbols=sym(), data_size=64 + 16 * 8)
        fast, profile = assert_profiles_identical(program)
        assert list(profile.load_interlock) == [1]
        assert list(profile.fixed_interlock) == [3]

    @pytest.mark.parametrize("config", [
        replace(DEFAULT_CONFIG, l1d=replace(DEFAULT_CONFIG.l1d, assoc=2)),
        simple_stochastic_config(0.8),
        replace(DEFAULT_CONFIG, perfect_icache=True),
    ], ids=["assoc-l1d", "stochastic", "perfect-icache"])
    def test_machine_variants(self, config):
        """Set-associative L1 and the stochastic model take the
        non-inlined ``_dload`` path for every load."""
        program = compile_source(
            STENCIL_KERNEL, Options(scheduler="balanced")).program
        fast, profile = assert_profiles_identical(program, config)
        assert profile.load_interlock


def _captured_sources(monkeypatch):
    """Record every source the fast engine compiles from now on."""
    sources = []

    def recording_compile(src, filename, mode):
        sources.append(src)
        return compile(src, filename, mode)

    monkeypatch.setattr(fastsim, "_CODE_CACHE", {})
    monkeypatch.setattr(fastsim, "compile", recording_compile,
                        raising=False)
    return sources


_ATTRIBUTION_NAMES = re.compile(r"\b(PPC|LIA|FIA|MSA|MISS|pp)\b")


class TestEngineMemory:
    """Structural properties that keep the fast engine's memory at or
    below the interpreter's: per-block compiles, no reference cycle
    through a finished simulator, no cached profiled code."""

    @pytest.fixture
    def program(self):
        return compile_source(SMALL_KERNEL,
                              Options(scheduler="balanced")).program

    @pytest.mark.parametrize("mode,profiled,config,run", [
        pytest.param("reference", False, DEFAULT_CONFIG, True,
                     id="reference-False"),
        pytest.param("fast", False, DEFAULT_CONFIG, True, id="fast-False"),
        pytest.param("fast", True, DEFAULT_CONFIG, True, id="fast-True"),
        pytest.param("auto", False, DEFAULT_CONFIG, False, id="never-run"),
        pytest.param("fast", False, simple_stochastic_config(), True,
                     id="stochastic"),
        pytest.param("auto", False, simple_stochastic_config(), False,
                     id="stochastic-never-run")])
    def test_finished_simulator_is_freed_by_refcount(self, program, mode,
                                                     profiled, config,
                                                     run):
        """No closure of the memory path or the engine holds the
        simulator, so reference counting frees it, run or not."""
        gc.collect()
        gc.disable()
        try:
            sim = Simulator(program, config=config, mode=mode,
                            stall_profile=(StallProfile() if profiled
                                           else None))
            if run:
                sim.run()
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()

    def test_failed_run_drops_the_engine(self):
        program = assemble([("loop", [Instruction("BR",
                                                  label="loop")])])
        sim = Simulator(program, mode="fast")
        with pytest.raises(SimulationError):
            sim.run(max_instructions=100)
        assert sim._fast_engine is None

    @pytest.mark.parametrize("profiled", [False, True])
    def test_one_compile_per_block_function(self, program, monkeypatch,
                                            profiled):
        sources = _captured_sources(monkeypatch)
        sim = Simulator(program, mode="fast", stall_profile=(
            StallProfile() if profiled else None))
        sim.build()
        table = sim._fast_engine.table
        assert len(sources) == len(table) > 1
        for src, pc in zip(sources, table):
            assert re.findall(r"^ def (\w+)\(", src, re.M) == [f"b{pc}"]

    def test_profiled_build_is_not_cached(self, program):
        Simulator(program, mode="fast").build()
        before = dict(fastsim._CODE_CACHE)
        hits, misses = fastsim.code_cache_hits, fastsim.code_cache_misses
        Simulator(program, mode="fast",
                  stall_profile=StallProfile()).build()
        assert fastsim._CODE_CACHE == before
        assert (fastsim.code_cache_hits - hits,
                fastsim.code_cache_misses - misses) == (0, 1)
        Simulator(program, mode="fast").build()
        assert (fastsim.code_cache_hits - hits,
                fastsim.code_cache_misses - misses) == (1, 1)

    def test_unprofiled_source_has_no_attribution_code(self, program,
                                                       monkeypatch):
        sources = _captured_sources(monkeypatch)
        Simulator(program, mode="fast").build()
        plain = list(sources)
        Simulator(program, mode="fast",
                  stall_profile=StallProfile()).build()
        profiled = sources[len(plain):]
        assert not any(_ATTRIBUTION_NAMES.search(src) for src in plain)
        assert any(re.search(r"\b(LIA|FIA)\[", src) for src in profiled)
