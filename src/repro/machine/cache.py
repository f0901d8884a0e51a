"""Set-associative cache models with LRU replacement.

Timing-only models: they track tags, not data (the simulator keeps the
architectural memory state separately).  The L1 data cache is
*lockup-free* (Kroft-style): the simulator layers MSHR bookkeeping on
top of these tag arrays (see :mod:`repro.machine.simulator`).
"""

from __future__ import annotations

from typing import Optional

from .config import CacheLevelConfig
from .metrics import CacheStats


class Cache:
    """One cache level: ``lookup`` probes and fills on miss.

    ``lookup`` is bound once, at construction, as a closure over this
    cache's set list and stats: it is the one LRU implementation, and
    the simulator's miss path and the fast engine call it without an
    attribute lookup.  Nothing may rebind ``sets`` or ``stats``, which
    would detach the probe.  A set stays ``None`` until its first
    fill, so an untouched level costs one list, not one per set.
    """

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        line = config.line_bytes
        if line & (line - 1):
            raise ValueError("line size must be a power of two")
        self.line_shift = line_shift = line.bit_length() - 1
        n_lines = config.size_bytes // line
        self.assoc = assoc = config.assoc if config.assoc else n_lines
        self.n_sets = max(1, n_lines // assoc)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("set count must be a power of two")
        self.set_mask = set_mask = self.n_sets - 1
        # Per-set list of tags in LRU order (most recent last).  The
        # full line number is the tag (the set bits are redundant).
        self.sets: list[Optional[list[int]]] = [None] * self.n_sets
        self.stats = stats = CacheStats()
        sets = self.sets

        def lookup(addr: int, allocate: bool = True) -> bool:
            """Probe the cache; fill on miss when *allocate*.  True = hit."""
            line = addr >> line_shift
            ways = sets[line & set_mask]
            stats.accesses += 1
            if ways is not None and line in ways:
                if ways[-1] != line:
                    ways.remove(line)
                    ways.append(line)
                return True
            stats.misses += 1
            if allocate:
                if ways is None:
                    sets[line & set_mask] = [line]
                else:
                    ways.append(line)
                    if len(ways) > assoc:
                        del ways[0]
            return False

        self.lookup = lookup

    def contains(self, addr: int) -> bool:
        line = addr >> self.line_shift
        ways = self.sets[line & self.set_mask]
        return ways is not None and line in ways


class Tlb:
    """Fully associative TLB with LRU replacement.

    Like :class:`Cache`, ``lookup`` is a closure bound at construction,
    over the page dict and ``stats``.  Only ``stats.misses`` counts:
    the fast engine tests TLB hits inline, without calling ``lookup``.
    """

    def __init__(self, entries: int, page_bytes: int) -> None:
        if page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a power of two")
        self.entries = entries
        self.page_shift = page_shift = page_bytes.bit_length() - 1
        self.pages: dict[int, None] = {}
        self.stats = stats = CacheStats()
        pages = self.pages

        def lookup(addr: int) -> bool:
            """Probe and fill; True = hit."""
            page = addr >> page_shift
            if page in pages:
                # Refresh LRU position.
                del pages[page]
                pages[page] = None
                return True
            stats.misses += 1
            pages[page] = None
            if len(pages) > entries:
                del pages[next(iter(pages))]
            return False

        self.lookup = lookup


class BranchPredictor:
    """Direct-mapped table of 2-bit saturating counters."""

    def __init__(self, entries: int = 1024) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.mask = entries - 1
        self.counters = [1] * entries   # weakly not-taken
        self.mispredicts = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at *pc*, update state; True = correct."""
        index = pc & self.mask
        counter = self.counters[index]
        predicted_taken = counter >= 2
        if taken:
            if counter < 3:
                self.counters[index] = counter + 1
        else:
            if counter > 0:
                self.counters[index] = counter - 1
        correct = predicted_taken == taken
        if not correct:
            self.mispredicts += 1
        return correct
