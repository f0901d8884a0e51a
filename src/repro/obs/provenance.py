"""Schedule provenance: why each load landed in its slot.

Balanced scheduling replaces a load's fixed latency with a weight
derived from the *independent instructions* available to hide it
(Kerns & Eggers).  To make balanced-vs-traditional decisions diffable,
the block scheduler records one :class:`LoadScheduleRecord` per load:
the weight the model assigned, the architectural latency it replaced,
the number of independent contributor instructions the weight was
derived from, and the load's position before and after scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LoadScheduleRecord:
    """One load's scheduling decision inside one basic block."""

    block: str              # basic-block label
    op: str                 # LD / FLD
    dest: str               # destination register (repr)
    scheduler: str          # weight-model name (balanced/traditional)
    weight: float           # the weight the list scheduler used
    latency_weight: float   # architectural latency (traditional weight)
    #: Contributors independent of this load — the size of the
    #: instruction set its balanced weight was derived from (0 when the
    #: load was outside the balancing set or the model is traditional).
    indep_contributors: int
    slot_before: int        # position in the pre-scheduling block order
    slot_after: int         # final slot the list scheduler chose

    @property
    def hoisted_by(self) -> int:
        """Slots moved up (positive) or down (negative) by scheduling."""
        return self.slot_before - self.slot_after


class ScheduleProvenance:
    """All load scheduling decisions of one (or more) compilations."""

    def __init__(self) -> None:
        self.records: list[LoadScheduleRecord] = []

    def add(self, record: LoadScheduleRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def balanced_deviations(self) -> list[LoadScheduleRecord]:
        """Loads whose balanced weight differs from the architectural
        latency — exactly the decisions a traditional scheduler would
        have made differently."""
        return [r for r in self.records
                if abs(r.weight - r.latency_weight) > 1e-9]

    def format_table(self, n: int = 20) -> str:
        header = (f"{'block':<14} {'op':<5} {'dest':<8} {'weight':>8} "
                  f"{'latency':>8} {'indep':>6} {'slot':>9} {'moved':>6}")
        lines = [header, "-" * len(header)]
        rows = sorted(self.records,
                      key=lambda r: -abs(r.weight - r.latency_weight))
        for r in rows[:n]:
            lines.append(
                f"{r.block:<14} {r.op:<5} {r.dest:<8} {r.weight:>8.2f} "
                f"{r.latency_weight:>8.2f} {r.indep_contributors:>6} "
                f"{r.slot_before:>4}->{r.slot_after:<4} "
                f"{r.hoisted_by:>+6}")
        return "\n".join(lines)
