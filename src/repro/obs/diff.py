"""Manifest diffing: the repo's one regression gate.

``repro bench``/``tables``/``report`` write a JSON *run manifest* next
to the result cache; ``--oracle`` and ``repro analyze --attach`` add
its ``oracle`` and ``analysis`` sections.  :func:`diff_manifests`
gates a new manifest against a baseline: every deterministic count
the baseline records must be reproduced exactly, in both directions.
Those counts are

* per run point (``benchmark/scheduler/config``): total cycles and
  load-interlock cycles;
* per ``oracle`` point: the heuristic gaps and the block, loop and
  certified counts;
* per ``analysis`` point: the dependence-verdict counts, MAXLIVE per
  register bank and the over-budget block count.

The compiler, oracle and simulator are deterministic, so there is no
tolerance: fewer cycles is as much a finding as more, and an
intentional change regenerates the baseline in the same commit.  A
point or section the baseline has and the new manifest lacks fails
the gate; points only in the new manifest are reported but never
fail.  A field a baseline point does not record (an older manifest)
is not compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: The deterministic fields compared per point, by manifest section.
GATED_FIELDS = {
    "runs": ("total_cycles", "load_interlock_cycles"),
    "oracle": ("gap_balanced", "gap_traditional", "blocks",
               "blocks_certified", "loops", "loops_certified",
               "loops_beyond_heuristic"),
    "analysis": ("loops", "pairs", "independent", "exact", "always",
                 "unknown", "max_live_i", "max_live_f",
                 "over_budget_blocks"),
}


@dataclass
class DiffResult:
    """Outcome of gating a new manifest against a baseline."""

    #: Baseline points compared, per section.
    compared: dict[str, int] = field(default_factory=dict)
    #: One line per failure: a changed field, or a point or section
    #: the new manifest lacks.
    failures: list[str] = field(default_factory=list)
    #: ``"<section> <key>"`` for points only in the new manifest.
    only_new: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        counts = ", ".join(f"{n} point(s) in {section}"
                           for section, n in self.compared.items())
        lines = [f"compared {counts or 'no points'} exactly"]
        lines.extend(f"  {line}" for line in self.failures)
        lines.extend(f"  NEW      {point}" for point in self.only_new)
        lines.append("no differences" if self.ok else
                     f"{len(self.failures)} difference(s) from the "
                     f"baseline")
        return "\n".join(lines)


def _points(manifest: dict, section: str) -> Optional[dict[str, dict]]:
    """``{point key: entry}`` for one section, or None if it is absent."""
    if section == "runs":
        runs = manifest.get("runs")
        if not runs:
            return None
        return {f"{r['benchmark']}/{r['scheduler']}/{r['config']}": r
                for r in runs}
    body = manifest.get(section)
    return body.get("points", {}) if body else None


def diff_manifests(base: dict, new: dict) -> DiffResult:
    """Gate two run-manifest dicts; see the module docstring."""
    result = DiffResult()
    for section, fields in GATED_FIELDS.items():
        base_points = _points(base, section)
        if base_points is None:
            continue
        new_points = _points(new, section)
        if new_points is None:
            result.failures.append(f"MISSING  {section} section")
            continue
        result.compared[section] = len(base_points)
        for key, b in sorted(base_points.items()):
            n = new_points.get(key)
            if n is None:
                result.failures.append(f"MISSING  {section} {key}")
                continue
            for name in fields:
                if name in b and n.get(name) != b[name]:
                    result.failures.append(
                        f"CHANGED  {section} {key}: {name} "
                        f"{b[name]} -> {n.get(name)}")
        result.only_new.extend(f"{section} {key}"
                               for key in sorted(new_points)
                               if key not in base_points)
    return result


def diff_manifest_files(base_path: str | Path,
                        new_path: str | Path) -> DiffResult:
    """Load two manifest files and gate them.

    Raises ``OSError`` / ``json.JSONDecodeError`` for unreadable input;
    the CLI converts those into one-line errors.
    """
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return diff_manifests(base, new)
