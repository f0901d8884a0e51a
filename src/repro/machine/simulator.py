"""Execution-driven simulator of the single-issue 21164-like machine.

The simulator *executes* the program (architectural state: registers,
memory) while modelling timing with a scoreboard:

* in-order, single issue, one instruction per cycle when nothing
  stalls;
* **non-blocking loads**: a load issues, its destination register is
  marked ready at issue + hierarchy latency, and execution continues;
  the pipeline stalls only when an instruction *uses* a register that
  is not ready yet (and at load issue when all MSHRs are busy);
* stall cycles are attributed to the *producer* of the latest-ready
  operand: a load (variable latency) or a fixed-latency instruction —
  the paper's load vs. non-load interlock split;
* 3-level cache hierarchy with a lockup-free L1 D-cache (6 MSHRs,
  hit-under-miss and miss merging), I-cache, I/D TLBs, and a 2-bit
  branch predictor; correctly predicted taken branches cost one bubble
  (Table 3's 2-cycle branch), mispredicts cost the redirect penalty.

A ``profile=True`` or ``mode="profile"`` run additionally counts
basic-block and edge frequencies (the paper's profiling step for trace
selection).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from ..isa import SP, MachineProgram, OpClass, Reg
from .cache import BranchPredictor, Cache, Tlb
from .config import DEFAULT_CONFIG, MachineConfig
from .metrics import Metrics

if TYPE_CHECKING:   # no runtime dependency on the obs package
    from ..obs.stall import StallProfile

_MASK64 = (1 << 64) - 1

#: Words of architectural memory past the program's data.
STACK_WORDS = 4096

# Opcode dispatch codes (grouped: arithmetic decoded generically).
# "FLDI2" (code 37) is not a registered opcode, so no program contains
# it; it only holds its slot, because both engines hard-code the codes.
_OPC = {name: i for i, name in enumerate((
    "LD", "FLD", "ST", "FST", "LDI", "FLDI", "BR", "BEQ", "BNE", "HALT",
    "NOP", "ADD", "SUB", "MUL", "DIVQ", "REMQ", "AND", "OR", "XOR", "SLL",
    "SRL", "SRA", "CMPEQ", "CMPNE", "CMPLT", "CMPLE", "MOV", "FADD", "FSUB",
    "FMUL", "FDIV", "FCMPEQ", "FCMPNE", "FCMPLT", "FCMPLE", "FMOV", "FNEG",
    "FLDI2", "CVTIF", "CVTFI", "CMOVEQ", "CMOVNE", "FCMOVEQ", "FCMOVNE"))}

_CLASS_FIELD = {
    OpClass.SHORT_INT: "short_int",
    OpClass.LONG_INT: "long_int",
    OpClass.SHORT_FP: "short_fp",
    OpClass.LONG_FP: "long_fp",
    OpClass.LOAD: "loads",
    OpClass.STORE: "stores",
    OpClass.BRANCH: "branches",
    OpClass.OTHER: "short_int",
}


class SimulationError(Exception):
    """Runtime fault: bad address, division by zero, runaway execution."""


class Simulator:
    """Executes one :class:`~repro.isa.MachineProgram`.

    ``mode`` selects the execution engine:

    * ``"auto"`` (default): the throughput-oriented compiled engine
      (:mod:`repro.machine.fastsim`) unless the configuration is
      multi-issue or ``profile=True`` asks for block counts; the
      reference interpreter then.
    * ``"fast"`` / ``"reference"``: force one engine.  ``"fast"``
      raises if the configuration is unsupported.
    * ``"profile"``: architectural execution only — block and edge
      frequencies (and instruction-class counts) without any stall,
      cache or branch-prediction modelling; it implies
      ``profile=True``.  Cycle counters are placeholders.

    Both timing engines are bit-identical in every :class:`Metrics`
    counter and in final architectural state
    (``benchmarks/test_sim_identity.py`` compares them over the
    grid).  After :meth:`run`, ``mode_used`` records which engine
    actually executed, and every run's metrics have passed
    :meth:`Metrics.validate`.
    """

    def __init__(self, program: MachineProgram,
                 config: MachineConfig = DEFAULT_CONFIG,
                 profile: bool = False,
                 stall_profile: Optional["StallProfile"] = None,
                 mode: str = "auto") -> None:
        config.validate()
        if mode not in ("auto", "fast", "reference", "profile"):
            raise ValueError(f"unknown simulator mode {mode!r}")
        self.program = program
        self.config = config
        self.profiling = profile or mode == "profile"
        self.mode = mode
        #: Engine :meth:`build` chose, which :meth:`run` executes.
        self.mode_used: Optional[str] = None
        #: Optional per-PC stall attribution sink (obs.StallProfile).
        #: None (the default) keeps attribution out of both engines:
        #: the interpreter tests one boolean per instruction, and the
        #: fast engine generates no attribution code.
        self.stall_profile = stall_profile

        # Architectural memory: one Python number per 8-byte word.
        data_words = max(program.data_size // 8, 16)
        self.stack_base = data_words * 8
        self.memory: list = [0] * (data_words + STACK_WORDS)
        for symbol in program.symbols.values():
            start = symbol.address // 8
            count = symbol.size_bytes // 8
            fill = 0.0 if symbol.is_fp else 0
            for i in range(start, start + count):
                self.memory[i] = fill
            if symbol.initial is not None:
                self.set_symbol(symbol.name, symbol.initial)

        # Register slots (virtual or physical registers both work).
        self._slots: dict[Reg, int] = {}
        self.regs: list = []
        self.ready: list[int] = []
        self.from_load: list[bool] = []
        # Discard slots for writes to the architectural zero registers
        # (r31/f31).  One per register file so an integer and an fp
        # zero-dest write never share state; their readiness entries
        # are *never* updated (a discarded result can stall nobody).
        self._discard_slot = {"i": self._new_slot(0),
                              "f": self._new_slot(0.0)}

        # Machine structures.
        self.l1d = Cache(config.l1d)
        self.l1i = Cache(config.l1i)
        self.l2 = Cache(config.l2)
        self.l3 = Cache(config.l3)
        self.dtlb = Tlb(config.dtlb.entries, config.dtlb.page_bytes)
        self.itlb = Tlb(config.itlb.entries, config.itlb.page_bytes)
        self.bpred = BranchPredictor()
        self._mshr: dict[int, int] = {}   # L1D line -> completion time
        # The memory path both engines call: closures over the probes,
        # the MSHRs and the latencies, none holding the simulator.
        (self._dload, self._dstore, self._ifill_latency,
         self._stochastic_latency) = _memory_path(
            config, self.l1d, self.l2, self.l3, self.dtlb, self._mshr)

        # Profiling.
        self.block_counts: dict[str, int] = {}
        self.edge_counts: dict[tuple[str, str], int] = {}
        self._block_starts: dict[int, str] = {}
        if self.profiling:
            for label, index in program.labels.items():
                self._block_starts[index] = label

        self.metrics = Metrics()
        self._ran = False
        self._decoded = self._predecode()
        self._fast_engine = None

    # ---------------------------------------------------------- registers
    def _new_slot(self, initial) -> int:
        slot = len(self.regs)
        self.regs.append(initial)
        self.ready.append(0)
        self.from_load.append(False)
        return slot

    def _slot(self, reg: Reg) -> int:
        slot = self._slots.get(reg)
        if slot is None:
            slot = self._new_slot(0.0 if reg.is_fp else 0)
            self._slots[reg] = slot
            if reg is SP:
                self.regs[slot] = self.stack_base
        return slot

    def reg_value(self, reg: Reg):
        """Architectural value of *reg* (0 if never touched)."""
        if reg.is_zero:
            return 0.0 if reg.is_fp else 0
        slot = self._slots.get(reg)
        return self.regs[slot] if slot is not None else (
            0.0 if reg.is_fp else 0)

    # ------------------------------------------------------------- memory
    def set_symbol(self, name: str, values) -> None:
        """Set a data symbol's contents from a scalar or (nested) list."""
        symbol = self.program.symbols[name]
        flat = _flatten(values)
        count = symbol.size_bytes // 8
        if len(flat) > count:
            raise ValueError(f"{name}: {len(flat)} values > {count} slots")
        base = symbol.address // 8
        convert = float if symbol.is_fp else int
        for i, value in enumerate(flat):
            self.memory[base + i] = convert(value)

    def get_symbol(self, name: str):
        """Current contents of a data symbol (flat list, or scalar)."""
        symbol = self.program.symbols[name]
        base = symbol.address // 8
        count = symbol.size_bytes // 8
        if count == 1 and not symbol.dims:
            return self.memory[base]
        return self.memory[base:base + count]

    # ------------------------------------------------------------ decode
    def _predecode(self):
        decoded = []
        for index, instr in enumerate(self.program.instructions):
            code = _OPC[instr.op]
            dest = self._slot(instr.dest) if instr.dest is not None else -1
            track = True
            reads_dest = instr.info.reads_dest
            if instr.dest is not None and instr.dest.is_zero:
                # Writes to r31/f31 are architecturally discarded:
                # redirect the value to a per-file discard slot whose
                # readiness state is never updated (``track=False``),
                # so a discarded producer — e.g. a prefetch-idiom load
                # — can never charge interlock cycles against a later
                # zero-dest consumer, and an integer discard never
                # collides with an fp one.  The zero register always
                # reads as ready, so the CMOV dest-read check is
                # dropped too.
                dest = self._discard_slot[instr.dest.kind]
                track = False
                reads_dest = False
            srcs = tuple(self._slot(r) for r in instr.srcs)
            # Zero registers read as constant 0: give them a pinned slot.
            target = (self.program.labels[instr.label]
                      if instr.is_branch else -1)
            latency = self.config.op_latency[instr.op]
            cls_field = _CLASS_FIELD[instr.info.opclass]
            decoded.append((code, dest, srcs, instr.imm, instr.offset,
                            target, latency, cls_field, instr.is_spill,
                            reads_dest, track))
        return decoded

    # -------------------------------------------------------------- run
    def build(self) -> None:
        """Choose the engine for :meth:`run` and build the fast one.

        Building the fast engine is compilation, not simulation; the
        harness calls this before :meth:`run` so the two are timed
        apart.  :meth:`run` calls it too; a second call does nothing.
        """
        if self.mode_used is not None:
            return
        mode = "fast" if self.mode == "auto" else self.mode
        if mode == "fast":
            from .fastsim import build_engine

            self._fast_engine = build_engine(self)
            if self._fast_engine is None:
                if self.mode == "fast":
                    raise ValueError(
                        "mode='fast' requested but this configuration "
                        "is not supported by the compiled engine "
                        "(multi-issue or profiling); use mode='auto' "
                        "or 'reference'")
                mode = "reference"
        self.mode_used = mode

    def run(self, max_instructions: int = 200_000_000) -> Metrics:
        """Execute the program once and return its :class:`Metrics`.

        ``run`` is **single-shot**: architectural state, cache contents
        and metrics all belong to exactly one execution, and a second
        call would silently accumulate class counts onto totals while
        overwriting cycle and cache counters (inconsistent metrics).
        Construct a fresh :class:`Simulator` per execution instead; a
        repeated call raises :class:`SimulationError`.
        """
        if self._ran:
            raise SimulationError(
                "Simulator.run() is single-shot: this simulator has "
                "already executed its program; construct a new "
                "Simulator to run it again")
        self._ran = True
        try:
            self.build()
            if self.mode_used == "profile":
                from .fastsim import run_profile

                run_profile(self, max_instructions)
            elif self.mode_used == "fast":
                self._fast_engine.run(max_instructions)
            else:
                self._run_reference(max_instructions)
        finally:
            # The engine holds this simulator: dropping it breaks the
            # cycle, so a finished simulator is freed by reference
            # counting instead of waiting for the cyclic collector.
            self._fast_engine = None
        self.metrics.validate(issue_width=self.config.issue_width)
        return self.metrics

    def _flush_machine_stats(self) -> None:
        """Copy cache/TLB/predictor state counters into the metrics."""
        m = self.metrics
        m.l1d = self.l1d.stats
        m.l1i = self.l1i.stats
        m.l2 = self.l2.stats
        m.l3 = self.l3.stats
        m.dtlb_misses = self.dtlb.stats.misses
        m.itlb_misses = self.itlb.stats.misses
        m.branch_mispredicts = self.bpred.mispredicts

    def _run_reference(self, max_instructions: int) -> Metrics:
        m = self.metrics
        config = self.config
        regs = self.regs
        ready = self.ready
        from_load = self.from_load
        memory = self.memory
        decoded = self._decoded
        n_instrs = len(decoded)
        mispredict_penalty = config.branch_mispredict_penalty
        profiling = self.profiling
        block_starts = self._block_starts
        current_block: Optional[str] = None

        t = 0                   # current cycle
        pc = 0
        executed = 0
        last_fetch_line = -1
        last_fetch_page = -1
        l1i = self.l1i
        itlb = self.itlb
        line_shift = l1i.line_shift
        page_shift = itlb.page_shift
        itlb_penalty = config.itlb.miss_penalty
        # In-order multi-issue accounting: `slots_left` instructions may
        # still issue in cycle `t`, of which `mem_left` memory ops.
        # Width 1 (the paper's model) reduces to one bump per issue.
        width = config.issue_width
        perfect_icache = config.perfect_icache
        slots_left = width
        mem_left = 1

        # Optional cycle-level stall attribution (obs.StallProfile).
        # `observing` is the only cost on the disabled path; timing and
        # architectural state are identical either way.
        sp = self.stall_profile
        observing = sp is not None
        if observing:
            producer_pc = [-1] * len(regs)
            sp_exec = sp.exec_counts
            sp_load_intlk = sp.load_interlock
            sp_fixed_intlk = sp.fixed_interlock
            sp_hits = sp.load_hits
            sp_misses = sp.load_misses
            sp_mshr = sp.mshr_stalls
            l1_hit_latency = config.l1d.latency

        class_counts = {"short_int": 0, "long_int": 0, "short_fp": 0,
                        "long_fp": 0, "loads": 0, "stores": 0,
                        "branches": 0}

        while True:
            if pc >= n_instrs:
                raise SimulationError(f"pc {pc} out of range")
            if executed >= max_instructions:
                raise SimulationError("instruction limit exceeded "
                                      f"({max_instructions})")
            if profiling and pc in block_starts:
                label = block_starts[pc]
                self.block_counts[label] = self.block_counts.get(label, 0) + 1
                if current_block is not None:
                    edge = (current_block, label)
                    self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1
                current_block = label

            # ----- instruction fetch (icache + itlb, line-memoized)
            fetch_addr = pc << 2
            line = fetch_addr >> line_shift
            if perfect_icache:
                pass
            elif line != last_fetch_line:
                last_fetch_line = line
                page = fetch_addr >> page_shift
                if page != last_fetch_page:
                    last_fetch_page = page
                    if not itlb.lookup(fetch_addr):
                        m.icache_stall_cycles += itlb_penalty
                        t += itlb_penalty
                        slots_left = width
                        mem_left = 1
                if not l1i.lookup(fetch_addr):
                    extra = self._ifill_latency(fetch_addr)
                    m.icache_stall_cycles += extra
                    t += extra
                    slots_left = width
                    mem_left = 1

            (code, dest, srcs, imm, offset, target, latency, cls_field,
             is_spill, reads_dest, track) = decoded[pc]
            executed += 1
            class_counts[cls_field] += 1
            if observing:
                sp_exec[pc] = sp_exec.get(pc, 0) + 1

            # ----- operand readiness / interlock attribution
            start = t
            stall_is_load = False
            stall_slot = -1
            for s in srcs:
                rt = ready[s]
                if rt > start:
                    start = rt
                    stall_is_load = from_load[s]
                    stall_slot = s
                elif rt == start and from_load[s] and start > t:
                    stall_is_load = True
                    stall_slot = s
            if reads_dest and dest >= 0:
                rt = ready[dest]
                if rt > start:
                    start = rt
                    stall_is_load = from_load[dest]
                    stall_slot = dest
            if start > t:
                if stall_is_load:
                    m.load_interlock_cycles += start - t
                    if observing:
                        src_pc = producer_pc[stall_slot]
                        sp_load_intlk[src_pc] = (
                            sp_load_intlk.get(src_pc, 0) + start - t)
                else:
                    m.fixed_interlock_cycles += start - t
                    if observing:
                        src_pc = producer_pc[stall_slot]
                        sp_fixed_intlk[src_pc] = (
                            sp_fixed_intlk.get(src_pc, 0) + start - t)
                t = start
                slots_left = width
                mem_left = 1

            # ----- execute
            if code <= 3:                        # LD, FLD, ST, FST
                if mem_left == 0:        # one memory port per cycle
                    t += 1
                    slots_left = width
                    mem_left = 1
                if code <= 1:                    # loads
                    addr = regs[srcs[0]] + offset
                    if addr < 0 or addr >= len(memory) << 3:
                        raise SimulationError(
                            f"load address {addr} out of range at pc {pc}")
                    lat, stall = self._dload(addr, t)
                    if stall:
                        m.mshr_stall_cycles += stall
                        m.load_interlock_cycles += stall
                        if observing:
                            sp_mshr[pc] = sp_mshr.get(pc, 0) + stall
                            sp_load_intlk[pc] = (
                                sp_load_intlk.get(pc, 0) + stall)
                        t += stall
                        slots_left = width
                        mem_left = 1
                    regs[dest] = memory[addr >> 3]
                    if track:
                        ready[dest] = t + lat
                        from_load[dest] = True
                        if observing:
                            producer_pc[dest] = pc
                    if observing:
                        if lat <= l1_hit_latency:
                            sp_hits[pc] = sp_hits.get(pc, 0) + 1
                        else:
                            sp_misses[pc] = sp_misses.get(pc, 0) + 1
                    if is_spill:
                        m.spill_loads += 1
                else:                            # stores
                    addr = regs[srcs[1]] + offset
                    if addr < 0 or addr >= len(memory) << 3:
                        raise SimulationError(
                            f"store address {addr} out of range at pc {pc}")
                    self._dstore(addr)
                    memory[addr >> 3] = regs[srcs[0]]
                    if is_spill:
                        m.spill_stores += 1
                mem_left -= 1
                slots_left -= 1
                if slots_left == 0:
                    t += 1
                    slots_left = width
                    mem_left = 1
                pc += 1
                continue
            elif code <= 5:                      # LDI, FLDI
                regs[dest] = imm
                if track:
                    ready[dest] = t + 1
                    from_load[dest] = False
                    if observing:
                        producer_pc[dest] = pc
                slots_left -= 1
                if slots_left == 0:
                    t += 1
                    slots_left = width
                    mem_left = 1
                pc += 1
                continue
            elif code <= 9:                      # BR, BEQ, BNE, HALT
                if code == 6:                    # BR
                    pc = target
                    t += 2
                    slots_left = width
                    mem_left = 1
                    continue
                if code == 9:                    # HALT
                    t += 1
                    break
                value = regs[srcs[0]]
                taken = (value == 0) if code == 7 else (value != 0)
                correct = self.bpred.predict_and_update(pc, taken)
                slots_left = width
                mem_left = 1
                if correct:
                    t += 2 if taken else 1
                else:
                    extra = 1 + mispredict_penalty
                    t += extra
                    m.branch_stall_cycles += mispredict_penalty
                pc = target if taken else pc + 1
                continue
            elif code == 10:                     # NOP
                slots_left -= 1
                if slots_left == 0:
                    t += 1
                    slots_left = width
                    mem_left = 1
                pc += 1
                continue
            else:
                a = regs[srcs[0]] if srcs else None
                b = regs[srcs[1]] if len(srcs) > 1 else imm
                if code == 11:
                    value = a + b
                elif code == 12:
                    value = a - b
                elif code == 13:
                    value = a * b
                elif code == 14 or code == 15:
                    if b == 0:
                        raise SimulationError(f"division by zero at pc {pc}")
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    value = q if code == 14 else a - q * b
                elif code == 16:
                    value = a & b
                elif code == 17:
                    value = a | b
                elif code == 18:
                    value = a ^ b
                elif code == 19:
                    value = (a << b) & _MASK64
                    if value >= 1 << 63:
                        value -= 1 << 64
                elif code == 20:
                    value = (a & _MASK64) >> b
                elif code == 21:
                    value = a >> b
                elif code == 22:
                    value = 1 if a == b else 0
                elif code == 23:
                    value = 1 if a != b else 0
                elif code == 24:
                    value = 1 if a < b else 0
                elif code == 25:
                    value = 1 if a <= b else 0
                elif code == 26:
                    value = a
                elif code == 27:
                    value = a + b
                elif code == 28:
                    value = a - b
                elif code == 29:
                    value = a * b
                elif code == 30:
                    if b == 0.0:
                        raise SimulationError(f"fp division by zero at {pc}")
                    value = a / b
                elif code == 31:
                    value = 1 if a == b else 0
                elif code == 32:
                    value = 1 if a != b else 0
                elif code == 33:
                    value = 1 if a < b else 0
                elif code == 34:
                    value = 1 if a <= b else 0
                elif code == 35:
                    value = a
                elif code == 36:
                    value = -a
                elif code == 38:
                    value = float(a)
                elif code == 39:
                    value = int(a)
                elif code == 40 or code == 41:   # CMOVEQ/CMOVNE
                    cond_hold = (a == 0) if code == 40 else (a != 0)
                    value = b if cond_hold else regs[dest]
                elif code == 42 or code == 43:   # FCMOVEQ/FCMOVNE
                    cond_hold = (a == 0) if code == 42 else (a != 0)
                    value = b if cond_hold else regs[dest]
                else:
                    raise SimulationError(f"bad opcode {code} at pc {pc}")
                regs[dest] = value
                if track:
                    ready[dest] = t + latency
                    from_load[dest] = False
                    if observing:
                        producer_pc[dest] = pc
                slots_left -= 1
                if slots_left == 0:
                    t += 1
                    slots_left = width
                    mem_left = 1
                pc += 1
                continue

        m.total_cycles = t
        m.instructions = executed
        m.short_int += class_counts["short_int"]
        m.long_int += class_counts["long_int"]
        m.short_fp += class_counts["short_fp"]
        m.long_fp += class_counts["long_fp"]
        m.loads += class_counts["loads"]
        m.stores += class_counts["stores"]
        m.branches += class_counts["branches"]
        self._flush_machine_stats()
        return m


def _memory_path(config: MachineConfig, l1d: Cache, l2: Cache, l3: Cache,
                 dtlb: Tlb, mshr: dict[int, int]) -> tuple:
    """Bind the memory timing paths: ``(dload, dstore, ifill_latency,
    stochastic_latency)``.

    Each is a closure over the level probes, *mshr* (L1D line ->
    completion time), a completion-time heap and the configured
    latencies, so a call looks nothing up on the simulator or the
    config.  None holds the simulator, so reference counting alone
    frees it.
    """
    l1d_lookup, l2_lookup, l3_lookup = l1d.lookup, l2.lookup, l3.lookup
    l1d_contains, dtlb_lookup = l1d.contains, dtlb.lookup
    l1d_stats = l1d.stats
    line_shift = l1d.line_shift
    l1_latency = config.l1d.latency
    l2_latency, l3_latency = config.l2.latency, config.l3.latency
    memory_latency = config.memory_latency
    dtlb_penalty = config.dtlb.miss_penalty
    mshr_entries = config.mshr_entries
    l1i_latency = config.l1i.latency
    hit_rate = config.stochastic_hit_rate
    miss_mean = config.stochastic_miss_mean
    miss_std = config.stochastic_miss_std
    # Min-heap of in-flight completion times, drained lazily.  The
    # occupancy question "are all MSHRs busy at cycle *now*?" is
    # answered by popping expired heads — O(log n) per miss instead of
    # rebuilding a list over every dict value.
    heap: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    rng_state = 0x1234ABCD                  # stochastic-model LCG

    def stochastic_latency() -> int:
        """Load latency under the Kerns-Eggers stochastic model."""
        nonlocal rng_state
        state = (rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        unit = state / 0x80000000
        if unit < hit_rate:
            rng_state = state
            l1d_stats.accesses += 1
            return l1_latency
        # Miss latency: normal approximation from four uniforms.
        total = 0.0
        for _ in range(4):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            total += state / 0x80000000
        rng_state = state
        gauss = (total - 2.0) * 1.7320508
        latency = miss_mean + miss_std * gauss
        l1d_stats.accesses += 1
        l1d_stats.misses += 1
        return max(int(round(latency)), l1_latency + 1)

    def ifill_latency(addr: int) -> int:
        """Extra fetch cycles beyond the L1I pipeline on an I-miss."""
        if l2_lookup(addr):
            return l2_latency - l1i_latency
        if l3_lookup(addr):
            return l3_latency - l1i_latency
        return memory_latency - l1i_latency

    if config.memory_model == "stochastic":
        def dload(addr: int, now: int) -> tuple[int, int]:
            return stochastic_latency(), 0

        def dstore(addr: int) -> None:
            """Stores have no cache side effects in this model."""

        return dload, dstore, ifill_latency, stochastic_latency

    def dload(addr: int, now: int) -> tuple[int, int]:
        """(latency, issue-stall) for a data load at cycle *now*."""
        extra = 0 if dtlb_lookup(addr) else dtlb_penalty
        # MSHRs are keyed by the L1D line, as the fast engine's inlined
        # hit test keys them.
        line = addr >> line_shift
        inflight = mshr.get(line)
        if inflight is not None and inflight > now:
            # Merge with the outstanding miss: data forwarded on fill.
            l1d_lookup(addr)    # counts the access (tag already filled)
            return max(inflight - now, l1_latency) + extra, 0

        if l1d_lookup(addr):
            return l1_latency + extra, 0

        # L1 miss: need an MSHR.  The heap holds completion times of
        # all outstanding misses; entries whose fill already happened
        # are popped lazily, so occupancy is just the heap length and
        # the all-busy case reads the earliest completion from the top.
        stall = 0
        while heap and heap[0] <= now:
            heappop(heap)
        if len(heap) >= mshr_entries:
            earliest = heap[0]
            stall = earliest - now
            now = earliest
            while heap and heap[0] <= now:
                heappop(heap)
        if len(mshr) > 64:
            for stale in [ln for ln, c in mshr.items() if c <= now]:
                del mshr[stale]

        if l2_lookup(addr):
            latency = l2_latency + extra
        elif l3_lookup(addr):
            latency = l3_latency + extra
        else:
            latency = memory_latency + extra
        completion = now + latency
        mshr[line] = completion
        heappush(heap, completion)
        return latency, stall

    def dstore(addr: int) -> None:
        """Write-through store: update lower-level tags, no-allocate L1."""
        dtlb_lookup(addr)   # store TLB misses absorbed by the write buffer
        if not l1d_contains(addr):
            # No-write-allocate L1; allocate in L2 (write-back there).
            l2_lookup(addr)
        # If the line is present in L1 the write updates it in place.

    return dload, dstore, ifill_latency, stochastic_latency


def _flatten(values) -> list:
    if isinstance(values, (int, float)):
        return [values]
    flat: list = []
    for item in values:
        if isinstance(item, (list, tuple)):
            flat.extend(_flatten(item))
        else:
            flat.append(item)
    return flat


def simulate(program: MachineProgram,
             config: MachineConfig = DEFAULT_CONFIG,
             arrays: Optional[dict] = None,
             max_instructions: int = 200_000_000) -> Metrics:
    """Convenience wrapper: run *program* and return its metrics."""
    sim = Simulator(program, config=config)
    for name, values in (arrays or {}).items():
        sim.set_symbol(name, values)
    return sim.run(max_instructions=max_instructions)
