"""The diagnostic model shared by every validator and lint.

A :class:`Diagnostic` is one finding: a severity, a stable kebab-case
rule id, the pass (boundary) that produced it, a human message, and --
for source-level lints -- the :class:`~repro.frontend.errors.SourceLocation`
of the offending construct, rendered ``line:column`` exactly like
frontend errors.

Error-severity diagnostics are *hard*: in raising mode (the default for
``REPRO_VALIDATE_IR=1`` compiles) they abort the compilation with a
:class:`CheckError` naming the pass that broke the IR, instead of
letting a miscompile surface later as a mysteriously wrong cycle
count.  Warnings and notes are lints: collected, reported
by ``repro check``, and never fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend.errors import SourceLocation

#: Diagnostic severities, most severe first.
ERROR = "error"
WARNING = "warning"
NOTE = "note"

SEVERITIES = (ERROR, WARNING, NOTE)
_SEVERITY_RANK = {severity: rank for rank, severity in
                  enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a validator or lint."""

    severity: str                 # ERROR | WARNING | NOTE
    rule: str                     # stable kebab-case id, e.g. "use-before-def"
    message: str
    pass_name: str = ""           # pipeline boundary, e.g. "sched.block"
    block: str = ""               # CFG block label, when applicable
    loc: Optional[SourceLocation] = None   # source position, when known

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        """``[line:column: ]severity: rule: message [in BLOCK] [after PASS]``."""
        parts = []
        if self.loc is not None:
            parts.append(f"{self.loc}: ")
        parts.append(f"{self.severity}: {self.rule}: {self.message}")
        if self.block:
            parts.append(f" [block {self.block}]")
        if self.pass_name:
            parts.append(f" [after {self.pass_name}]")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


class CheckError(Exception):
    """A pass broke an IR invariant (error-severity diagnostics).

    Carries every diagnostic gathered at the failing boundary so the
    message names the guilty pass and all violations at once.
    """

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.is_error]
        shown = errors or self.diagnostics
        head = shown[0].render() if shown else "IR validation failed"
        if len(shown) > 1:
            head += f" (+{len(shown) - 1} more)"
        super().__init__(head)


def worst_severity(diagnostics: list[Diagnostic]) -> Optional[str]:
    """Most severe level present, or None for an empty list."""
    if not diagnostics:
        return None
    return min((d.severity for d in diagnostics),
               key=_SEVERITY_RANK.get)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Stable order: errors first, then by pass, block, rule."""
    return sorted(diagnostics,
                  key=lambda d: (_SEVERITY_RANK[d.severity], d.pass_name,
                                 d.block, d.rule, d.message))
