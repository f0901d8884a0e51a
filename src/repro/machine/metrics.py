"""Simulation metrics: the counters the paper reports (section 4.3).

"The simulator produces metrics for execution cycles and number of
instructions.  Cycle metrics measure total cycles, interlock cycles for
both loads and instructions with fixed latencies, and dynamic
instruction execution.  Instruction counts are obtained for long and
short integers, long and short floating point operations, loads,
stores, branches, and spill and restore instructions."
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MetricsInvariantError(ValueError):
    """A simulation counter violated a structural invariant."""


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class Metrics:
    """Counters accumulated over one simulated execution."""

    total_cycles: int = 0
    instructions: int = 0

    # Dynamic instruction counts by class.
    short_int: int = 0
    long_int: int = 0
    short_fp: int = 0
    long_fp: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    spill_loads: int = 0        # restore instructions
    spill_stores: int = 0       # spill instructions

    # Interlock cycles, attributed to the producer of the stalling
    # operand: a load (variable latency) or a fixed-latency instruction.
    load_interlock_cycles: int = 0
    fixed_interlock_cycles: int = 0

    # Other stall sources.
    icache_stall_cycles: int = 0
    branch_stall_cycles: int = 0
    mshr_stall_cycles: int = 0

    # Memory system behaviour.
    l1d: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    l3: CacheStats = field(default_factory=CacheStats)
    l1i: CacheStats = field(default_factory=CacheStats)
    dtlb_misses: int = 0
    itlb_misses: int = 0
    branch_mispredicts: int = 0

    @property
    def interlock_cycles(self) -> int:
        return self.load_interlock_cycles + self.fixed_interlock_cycles

    @property
    def load_interlock_fraction(self) -> float:
        """Load interlock cycles as a fraction of total cycles."""
        if not self.total_cycles:
            return 0.0
        return self.load_interlock_cycles / self.total_cycles

    def class_counts(self) -> dict[str, int]:
        return {
            "short_int": self.short_int,
            "long_int": self.long_int,
            "short_fp": self.short_fp,
            "long_fp": self.long_fp,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "spill_loads": self.spill_loads,
            "spill_stores": self.spill_stores,
        }

    def validate(self, issue_width: int = 1) -> None:
        """Check the structural invariants between counters.

        Called at the end of every simulation, so a
        counter-accounting bug fails loudly instead of silently
        skewing a table.  Raises :class:`MetricsInvariantError` with a
        one-line reason.
        """
        def fail(reason: str) -> None:
            raise MetricsInvariantError(f"metrics invariant: {reason}")

        counters = {
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "load_interlock_cycles": self.load_interlock_cycles,
            "fixed_interlock_cycles": self.fixed_interlock_cycles,
            "icache_stall_cycles": self.icache_stall_cycles,
            "branch_stall_cycles": self.branch_stall_cycles,
            "mshr_stall_cycles": self.mshr_stall_cycles,
            "dtlb_misses": self.dtlb_misses,
            "itlb_misses": self.itlb_misses,
            "branch_mispredicts": self.branch_mispredicts,
            **self.class_counts(),
        }
        for name, value in counters.items():
            if value < 0:
                fail(f"{name} is negative ({value})")
        class_sum = (self.short_int + self.long_int + self.short_fp
                     + self.long_fp + self.loads + self.stores
                     + self.branches)
        if class_sum != self.instructions:
            fail(f"instruction-class counts sum to {class_sum}, "
                 f"expected instructions={self.instructions}")
        if self.spill_loads > self.loads:
            fail(f"spill_loads {self.spill_loads} > loads {self.loads}")
        if self.spill_stores > self.stores:
            fail(f"spill_stores {self.spill_stores} > "
                 f"stores {self.stores}")
        if self.instructions and \
                self.total_cycles * max(issue_width, 1) < self.instructions:
            fail(f"total_cycles {self.total_cycles} x width "
                 f"{issue_width} < instructions {self.instructions}")
        if self.interlock_cycles > self.total_cycles:
            fail(f"interlock cycles {self.interlock_cycles} > "
                 f"total_cycles {self.total_cycles}")
        if self.mshr_stall_cycles > self.load_interlock_cycles:
            fail(f"mshr_stall_cycles {self.mshr_stall_cycles} > "
                 f"load_interlock_cycles {self.load_interlock_cycles}")
        for level, stats in (("l1d", self.l1d), ("l1i", self.l1i),
                             ("l2", self.l2), ("l3", self.l3)):
            if stats.misses > stats.accesses:
                fail(f"{level} misses {stats.misses} > "
                     f"accesses {stats.accesses}")
        if self.branch_mispredicts > self.branches:
            fail(f"branch_mispredicts {self.branch_mispredicts} > "
                 f"branches {self.branches}")

    def summary(self) -> str:
        lines = [
            f"cycles               {self.total_cycles}",
            f"instructions         {self.instructions}",
            f"load interlocks      {self.load_interlock_cycles}"
            f" ({100 * self.load_interlock_fraction:.1f}% of cycles)",
            f"fixed interlocks     {self.fixed_interlock_cycles}",
            f"icache stalls        {self.icache_stall_cycles}",
            f"branch stalls        {self.branch_stall_cycles}",
            f"mshr stalls          {self.mshr_stall_cycles}",
            f"L1D  {self.l1d.accesses} accesses, {self.l1d.misses} misses",
            f"L2   {self.l2.accesses} accesses, {self.l2.misses} misses",
            f"L3   {self.l3.accesses} accesses, {self.l3.misses} misses",
            f"mispredicts          {self.branch_mispredicts}",
        ]
        return "\n".join(lines)
