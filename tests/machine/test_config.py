"""Machine configuration: paper Tables 2-3 constants, simple model."""

from dataclasses import replace

import pytest

from repro.isa import (
    ALLOCATABLE,
    OPCODES,
    PRESSURE_LIMIT,
    SPILL_SCRATCH,
    Instruction,
    assemble,
)
from repro.machine import (
    DEFAULT_CONFIG,
    INSTRUCTION_LATENCIES,
    OP_LATENCY,
    CacheLevelConfig,
    ConfigError,
    Simulator,
    TlbConfig,
)
from repro.machine.config import simple_stochastic_config


class TestTable3Latencies:
    def test_paper_values(self):
        assert INSTRUCTION_LATENCIES["integer op"] == 1
        assert INSTRUCTION_LATENCIES["integer multiply"] == 8
        assert INSTRUCTION_LATENCIES["load"] == 2
        assert INSTRUCTION_LATENCIES["store"] == 1
        assert INSTRUCTION_LATENCIES["fp op"] == 4
        assert INSTRUCTION_LATENCIES["fp divide (single)"] == 17
        assert INSTRUCTION_LATENCIES["fp divide (double)"] == 30
        assert INSTRUCTION_LATENCIES["branch"] == 2

    def test_every_opcode_has_a_latency(self):
        assert set(OP_LATENCY) == set(OPCODES)

    def test_representative_opcodes(self):
        assert OP_LATENCY["ADD"] == 1
        assert OP_LATENCY["MUL"] == 8
        assert OP_LATENCY["FADD"] == 4
        assert OP_LATENCY["FDIV"] == 30
        assert OP_LATENCY["LD"] == 2
        assert OP_LATENCY["ST"] == 1


class TestTable2Memory:
    def test_hierarchy_geometry(self):
        config = DEFAULT_CONFIG
        assert config.l1d.size_bytes == 8 * 1024
        assert config.l1d.assoc == 1
        assert config.l1d.line_bytes == 32
        assert config.l1d.latency == 2
        assert config.l2.size_bytes == 96 * 1024
        assert config.l2.assoc == 3
        assert config.memory_latency == 50      # the paper's max latency

    def test_weight_cap_equals_memory_latency(self):
        assert DEFAULT_CONFIG.max_load_weight == 50
        assert DEFAULT_CONFIG.load_hit_latency == 2

    def test_memory_table_rows(self):
        rows = DEFAULT_CONFIG.memory_table()
        names = [row[0] for row in rows]
        assert names == ["L1D", "L1I", "L2", "L3", "Memory",
                         "D-TLB", "I-TLB"]

    def test_latencies_strictly_increase_down_the_hierarchy(self):
        config = DEFAULT_CONFIG
        assert config.l1d.latency < config.l2.latency \
            < config.l3.latency < config.memory_latency


class TestSimpleModel:
    def test_flat_latencies_except_loads(self):
        config = simple_stochastic_config()
        assert config.op_latency["MUL"] == 1
        assert config.op_latency["FDIV"] == 1
        assert config.op_latency["LD"] == 2

    def test_idealizations(self):
        config = simple_stochastic_config()
        assert config.perfect_icache
        assert config.memory_model == "stochastic"

    def test_hit_rate_parameter(self):
        config = simple_stochastic_config(hit_rate=0.8)
        assert config.stochastic_hit_rate == 0.8

    def test_default_config_untouched(self):
        simple_stochastic_config()
        assert DEFAULT_CONFIG.memory_model == "hierarchy"
        assert DEFAULT_CONFIG.op_latency["MUL"] == 8

    def test_config_is_immutable(self):
        import pytest
        with pytest.raises(Exception):
            DEFAULT_CONFIG.memory_latency = 10  # frozen dataclass


class TestValidate:
    """MachineConfig.validate(): structurally bad configs are rejected
    at Simulator construction (regression: a custom config with
    ``l1i.latency > l2.latency`` used to yield a *negative* fill
    latency that silently rewound simulated time)."""

    def _reject(self, match, **overrides):
        config = replace(DEFAULT_CONFIG, **overrides)
        with pytest.raises(ConfigError, match=match):
            config.validate()
        program = assemble(
            [("entry", [Instruction("HALT")])])
        with pytest.raises(ConfigError, match=match):
            Simulator(program, config=config)

    def test_default_config_validates(self):
        DEFAULT_CONFIG.validate()

    def test_non_monotone_l1i_latency_rejected(self):
        self._reject("non-monotone",
                     l1i=CacheLevelConfig("L1I", 8192, 1, 32, 15))

    def test_non_monotone_l1d_latency_rejected(self):
        self._reject("non-monotone",
                     l1d=CacheLevelConfig("L1D", 8192, 1, 32, 15))

    def test_l2_slower_than_l3_rejected(self):
        self._reject("L2 latency",
                     l2=CacheLevelConfig("L2", 98304, 3, 32, 25))

    def test_l3_slower_than_memory_rejected(self):
        self._reject("L3 latency", memory_latency=10)

    def test_non_power_of_two_line_rejected(self):
        self._reject("power",
                     l1d=CacheLevelConfig("L1D", 8192, 1, 48, 2))

    def test_zero_latency_level_rejected(self):
        self._reject("latency must be positive",
                     l1d=CacheLevelConfig("L1D", 8192, 1, 32, 0))

    def test_negative_size_rejected(self):
        self._reject("size must be positive",
                     l1d=CacheLevelConfig("L1D", -8192, 1, 32, 2))

    def test_zero_mshrs_rejected(self):
        self._reject("mshr_entries", mshr_entries=0)

    def test_zero_issue_width_rejected(self):
        self._reject("issue_width", issue_width=0)

    def test_negative_mispredict_penalty_rejected(self):
        self._reject("branch_mispredict_penalty",
                     branch_mispredict_penalty=-1)

    def test_unknown_memory_model_rejected(self):
        self._reject("unknown memory model", memory_model="oracle")

    def test_bad_hit_rate_rejected(self):
        self._reject("stochastic_hit_rate", stochastic_hit_rate=1.5)

    def test_bad_tlb_rejected(self):
        self._reject("D-TLB", dtlb=TlbConfig(0, 8192, 30))
        self._reject("page size", dtlb=TlbConfig(64, 3000, 30))

    def test_nonpositive_op_latency_rejected(self):
        bad = dict(OP_LATENCY)
        bad["ADD"] = 0
        self._reject("op latency", op_latency=bad)

    def test_stochastic_model_skips_hierarchy_monotonicity(self):
        # The stochastic model never derives fill latencies, so a
        # non-monotone hierarchy is irrelevant there.
        config = replace(simple_stochastic_config(),
                         l1i=CacheLevelConfig("L1I", 8192, 1, 32, 15))
        config.validate()


class TestRegisterFileDerivation:
    """The register budgets derive from the one table in ``repro.isa``."""

    def test_default_allocatable_counts(self):
        assert ALLOCATABLE["i"] == 28
        assert ALLOCATABLE["f"] == 29

    def test_default_pressure_limit_is_24(self):
        # 32+32 files: min(28, 29) - 4 headroom.
        assert PRESSURE_LIMIT == 24

    def test_reserved_counts_match_allocator_table(self):
        # The int bank reserves zero + SP + spill scratch, the fp bank
        # zero + spill scratch, out of 32 each; the allocator's free
        # lists and scratch are that same table.
        from repro.codegen import regalloc
        assert 32 - ALLOCATABLE["i"] == len(SPILL_SCRATCH["i"]) + 2
        assert 32 - ALLOCATABLE["f"] == len(SPILL_SCRATCH["f"]) + 1
        assert regalloc.ALLOCATABLE is ALLOCATABLE
        assert regalloc.SPILL_SCRATCH is SPILL_SCRATCH
