"""Read-only view of the fast engine's code-cache counts.

The counts live in :mod:`repro.machine.fastsim`, and every run
manifest records them per grid point.  This view exists for one
reader, ``perfbench/run.py::_code_cache_counts``, which reads
``repro_fastsim_code_cache_{hits,misses}_total`` through
``REGISTRY.families()``.  Nothing under ``src/`` imports it.  A
declared benchmark change will move perfbench to the per-run manifest
fields and delete this module.
"""

from __future__ import annotations

from ..machine import fastsim


class _Count:
    """One fastsim count, shaped as a counter family with one child."""

    def __init__(self, attr: str) -> None:
        self._attr = attr

    @property
    def value(self) -> int:
        return getattr(fastsim, self._attr)

    def children(self) -> dict[str, "_Count"]:
        return {"": self}


class _View:
    def families(self) -> dict[str, _Count]:
        return {"repro_fastsim_code_cache_hits_total":
                _Count("code_cache_hits"),
                "repro_fastsim_code_cache_misses_total":
                _Count("code_cache_misses")}


REGISTRY = _View()
