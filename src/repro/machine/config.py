"""Machine model constants: the paper's Tables 2 and 3.

The processor is a single-issue, in-order, non-blocking model of the
DEC Alpha 21164 (paper section 4.3).  Instruction latencies follow
Table 3 exactly.  The memory hierarchy follows Table 2; where the
scanned table is incomplete we use the 21164's published organization
(8 KB direct-mapped L1s, 96 KB 3-way L2, off-chip board cache, 50-cycle
main memory — the paper's stated maximum load latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Table 3 -- processor latencies (cycles until the result is available).
INSTRUCTION_LATENCIES: dict[str, int] = {
    "integer op": 1,
    "integer multiply": 8,
    "load": 2,               # L1 hit
    "store": 1,
    "fp op": 4,
    "fp divide (single)": 17,
    "fp divide (double)": 30,
    "branch": 2,
}

#: Per-opcode result latency.  Loads are listed at their L1-hit value;
#: the simulator replaces it with the actual hierarchy latency.
OP_LATENCY: dict[str, int] = {}


def _fill_op_latencies() -> None:
    from ..isa import OPCODES, OpClass

    for name, info in OPCODES.items():
        if name == "FDIV":
            lat = INSTRUCTION_LATENCIES["fp divide (double)"]
        elif info.opclass is OpClass.LONG_INT:
            lat = INSTRUCTION_LATENCIES["integer multiply"]
        elif info.opclass is OpClass.SHORT_FP:
            lat = INSTRUCTION_LATENCIES["fp op"]
        elif info.opclass is OpClass.LOAD:
            lat = INSTRUCTION_LATENCIES["load"]
        elif info.opclass is OpClass.STORE:
            lat = INSTRUCTION_LATENCIES["store"]
        elif info.opclass is OpClass.BRANCH:
            lat = INSTRUCTION_LATENCIES["branch"]
        else:
            lat = 1
        OP_LATENCY[name] = lat


_fill_op_latencies()


class ConfigError(ValueError):
    """A :class:`MachineConfig` violates a structural constraint."""


#: Integer registers the allocator can never assign: the hardwired
#: zero (r31), the stack pointer (r30), and the two spill scratch
#: registers (r28/r29).  Mirrors ``repro.codegen.regalloc``'s
#: reservation table (a test asserts the two stay in sync; importing
#: it here would be circular).
RESERVED_INT_REGS = 4
#: FP registers never assigned: the zero (f31) and the two spill
#: scratch registers (f29/f30).
RESERVED_FP_REGS = 3
#: Margin below the allocatable bank size at which the list scheduler
#: stops *adding* pressure (it keeps scheduling, just stops preferring
#: latency-stretching candidates); covers allocator temporaries and
#: the inexactness of the scheduler's own live estimate.
PRESSURE_HEADROOM = 4


@dataclass(frozen=True)
class CacheLevelConfig:
    name: str
    size_bytes: int
    assoc: int                  # 0 = fully associative
    line_bytes: int
    latency: int                # total load-to-use latency at this level


@dataclass(frozen=True)
class TlbConfig:
    entries: int
    page_bytes: int
    miss_penalty: int


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description (Tables 2 and 3)."""

    l1d: CacheLevelConfig = CacheLevelConfig("L1D", 8 * 1024, 1, 32, 2)
    l1i: CacheLevelConfig = CacheLevelConfig("L1I", 8 * 1024, 1, 32, 2)
    l2: CacheLevelConfig = CacheLevelConfig("L2", 96 * 1024, 3, 32, 9)
    l3: CacheLevelConfig = CacheLevelConfig("L3", 2 * 1024 * 1024, 1, 64, 20)
    memory_latency: int = 50
    dtlb: TlbConfig = TlbConfig(64, 8 * 1024, 30)
    itlb: TlbConfig = TlbConfig(48, 8 * 1024, 30)
    mshr_entries: int = 6       # outstanding misses the lockup-free L1 allows
    branch_mispredict_penalty: int = 4
    #: Instructions issued per cycle.  The paper evaluates a single-issue
    #: model (its section 4.3 simplification of the 21164); width 2 is
    #: provided as the paper's stated future work ("wider-issue
    #: processors that require considerable ILP").  In-order, at most
    #: one memory operation per cycle, branches end the issue group.
    issue_width: int = 1

    #: Architectural register-file sizes (Alpha: 32 + 32).  The
    #: schedulers derive their pressure budgets from these instead of
    #: hard-coding the machine, so a config with a smaller file
    #: automatically throttles balanced scheduling earlier.
    int_regs: int = 32
    fp_regs: int = 32

    #: Memory model: "hierarchy" is the execution-driven 21164 model;
    #: "stochastic" reproduces the original balanced-scheduling study's
    #: setup (Kerns & Eggers 1993, discussed in this paper's section
    #: 5.5): every load is a hit with probability ``stochastic_hit_rate``
    #: and otherwise takes a normally distributed miss latency, with no
    #: cache state at all.
    memory_model: str = "hierarchy"
    stochastic_hit_rate: float = 0.95
    stochastic_miss_mean: float = 16.0
    stochastic_miss_std: float = 4.0
    #: Idealization used by the simple model: an instruction cache
    #: that always hits.
    perfect_icache: bool = False
    op_latency: dict[str, int] = field(
        default_factory=lambda: dict(OP_LATENCY))

    def validate(self) -> None:
        """Reject structurally inconsistent machine descriptions.

        The simulator derives *fill* latencies by subtraction (an
        instruction miss costs ``l2.latency - l1i.latency`` extra
        cycles, and so on down the hierarchy), so a configuration whose
        latencies are not monotone down the hierarchy would silently
        rewind simulated time.  Called from ``Simulator.__init__`` so a
        bad custom config fails loudly at construction instead of
        corrupting cycle counts.  Raises :class:`ConfigError`.
        """
        def fail(reason: str) -> None:
            raise ConfigError(f"invalid MachineConfig: {reason}")

        for level in (self.l1d, self.l1i, self.l2, self.l3):
            if level.size_bytes <= 0:
                fail(f"{level.name} size must be positive "
                     f"({level.size_bytes})")
            if level.line_bytes <= 0 or \
                    level.line_bytes & (level.line_bytes - 1):
                fail(f"{level.name} line size must be a positive power "
                     f"of two ({level.line_bytes})")
            if level.latency <= 0:
                fail(f"{level.name} latency must be positive "
                     f"({level.latency})")
            if level.assoc < 0:
                fail(f"{level.name} associativity must be >= 0 "
                     f"({level.assoc})")
        if self.memory_latency <= 0:
            fail(f"memory latency must be positive "
                 f"({self.memory_latency})")
        if self.memory_model == "hierarchy":
            # Fill latencies are differences between adjacent levels:
            # they must not go negative anywhere a miss can be filled.
            for upper in (self.l1d, self.l1i):
                if upper.latency > self.l2.latency:
                    fail(f"{upper.name} latency {upper.latency} > L2 "
                         f"latency {self.l2.latency} (non-monotone "
                         f"hierarchy yields negative fill latencies)")
            if self.l2.latency > self.l3.latency:
                fail(f"L2 latency {self.l2.latency} > L3 latency "
                     f"{self.l3.latency}")
            if self.l3.latency > self.memory_latency:
                fail(f"L3 latency {self.l3.latency} > memory latency "
                     f"{self.memory_latency}")
        elif self.memory_model != "stochastic":
            fail(f"unknown memory model {self.memory_model!r}")
        for tlb, name in ((self.dtlb, "D-TLB"), (self.itlb, "I-TLB")):
            if tlb.entries <= 0:
                fail(f"{name} must have at least one entry "
                     f"({tlb.entries})")
            if tlb.page_bytes <= 0 or \
                    tlb.page_bytes & (tlb.page_bytes - 1):
                fail(f"{name} page size must be a positive power of two "
                     f"({tlb.page_bytes})")
            if tlb.miss_penalty < 0:
                fail(f"{name} miss penalty must be >= 0 "
                     f"({tlb.miss_penalty})")
        if self.mshr_entries <= 0:
            fail(f"mshr_entries must be positive ({self.mshr_entries})")
        if self.issue_width <= 0:
            fail(f"issue_width must be positive ({self.issue_width})")
        if self.branch_mispredict_penalty < 0:
            fail(f"branch_mispredict_penalty must be >= 0 "
                 f"({self.branch_mispredict_penalty})")
        if not 0.0 <= self.stochastic_hit_rate <= 1.0:
            fail(f"stochastic_hit_rate must be in [0, 1] "
                 f"({self.stochastic_hit_rate})")
        if self.stochastic_miss_std < 0:
            fail(f"stochastic_miss_std must be >= 0 "
                 f"({self.stochastic_miss_std})")
        for op, latency in self.op_latency.items():
            if latency <= 0:
                fail(f"op latency for {op} must be positive ({latency})")
        if self.int_regs < RESERVED_INT_REGS + 1:
            fail(f"int_regs {self.int_regs} leaves no allocatable "
                 f"register after the {RESERVED_INT_REGS} reserved "
                 f"(zero, stack pointer, spill scratch)")
        if self.fp_regs < RESERVED_FP_REGS + 1:
            fail(f"fp_regs {self.fp_regs} leaves no allocatable "
                 f"register after the {RESERVED_FP_REGS} reserved "
                 f"(zero, spill scratch)")
        if self.pressure_limit < 1:
            fail(f"register files ({self.int_regs} int / {self.fp_regs} "
                 f"fp) underflow the scheduler pressure limit: "
                 f"{self.allocatable_int_regs}/"
                 f"{self.allocatable_fp_regs} allocatable minus "
                 f"{PRESSURE_HEADROOM} headroom leaves nothing")

    #: Maximum balanced load weight (paper footnote 1: no load can take
    #: more than the 50-cycle main-memory latency to satisfy).
    @property
    def max_load_weight(self) -> int:
        return self.memory_latency

    @property
    def allocatable_int_regs(self) -> int:
        """Integer registers the allocator can actually assign: the
        file minus the zero register, the stack pointer, and the two
        spill scratch registers."""
        return self.int_regs - RESERVED_INT_REGS

    @property
    def allocatable_fp_regs(self) -> int:
        """FP registers the allocator can assign: the file minus the
        zero register and the two spill scratch registers."""
        return self.fp_regs - RESERVED_FP_REGS

    @property
    def pressure_limit(self) -> int:
        """Live-register count past which the list scheduler stops
        admitting latency-stretching candidates: the smaller
        allocatable bank less a headroom margin for the allocator's
        own short-lived temporaries.  32+32 files give the
        long-standing limit of 24."""
        return (min(self.allocatable_int_regs, self.allocatable_fp_regs)
                - PRESSURE_HEADROOM)

    @property
    def load_hit_latency(self) -> int:
        return self.l1d.latency

    def memory_table(self) -> list[tuple[str, str, str, str, str]]:
        """Rows of the paper's Table 2 for the harness printers."""
        rows = []
        for level in (self.l1d, self.l1i, self.l2, self.l3):
            assoc = "direct" if level.assoc == 1 else (
                "full" if level.assoc == 0 else f"{level.assoc}-way")
            rows.append((level.name, f"{level.size_bytes // 1024} KB", assoc,
                         f"{level.line_bytes} B", f"{level.latency}"))
        rows.append(("Memory", "-", "-", "-", f"{self.memory_latency}"))
        rows.append(("D-TLB", f"{self.dtlb.entries} entries", "full",
                     f"{self.dtlb.page_bytes // 1024} KB page",
                     f"{self.dtlb.miss_penalty} (miss)"))
        rows.append(("I-TLB", f"{self.itlb.entries} entries", "full",
                     f"{self.itlb.page_bytes // 1024} KB page",
                     f"{self.itlb.miss_penalty} (miss)"))
        return rows


DEFAULT_CONFIG = MachineConfig()


def simple_stochastic_config(hit_rate: float = 0.95,
                             miss_mean: float = 16.0,
                             miss_std: float = 4.0) -> MachineConfig:
    """The Kerns & Eggers 1993 'simple model' (paper section 5.5).

    Single-cycle execution for everything except loads, a perfect
    instruction cache, and stochastic load latencies: a 2-cycle hit
    with probability *hit_rate*, otherwise a normally distributed miss
    (the original study's workstation-like memory).  The stochastic
    load path keeps no cache state and never probes the D-TLB.
    """
    flat_latency = {name: 1 for name in OP_LATENCY}
    flat_latency["LD"] = flat_latency["FLD"] = 2
    return MachineConfig(
        memory_latency=int(miss_mean + 3 * miss_std),
        memory_model="stochastic",
        stochastic_hit_rate=hit_rate,
        stochastic_miss_mean=miss_mean,
        stochastic_miss_std=miss_std,
        perfect_icache=True,
        op_latency=flat_latency,
    )

#: Data-layout geometry: every load and store moves one 8-byte element,
#: and lines are the L1 data cache's, 4 elements of 32 bytes (paper 3.3).
#: Lowering aligns arrays to lines, locality analysis groups references
#: by line, and dependence analysis conflicts accesses within an element.
ELEMENT_BYTES = 8
ELEMENTS_PER_LINE = DEFAULT_CONFIG.l1d.line_bytes // ELEMENT_BYTES
