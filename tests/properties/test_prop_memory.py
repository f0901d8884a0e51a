"""Property tests: the memory path against a reference model.

Both engines call the same miss path (``Simulator._dload``,
``_dstore``, ``_ifill_latency`` over the ``Cache``/``Tlb`` probes), so
engine-identity checks cannot see a bug in it.  This file keeps the
straightforward object-per-level model as the reference: caches with
eagerly allocated set lists and ``lookup`` methods, a TLB with a miss
counter, and the miss path as methods over them (MSHRs keyed by the
L1D line).  Hypothesis drives streams of loads at non-decreasing
cycles, stores and instruction fetches through both, on small
geometries where sets, ways, TLB entries and MSHRs all run out, and on
the default machine.  Every access must return the same timing and
leave the same per-level stats, D-TLB misses and MSHR contents.
"""

import heapq
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Instruction, assemble
from repro.machine import DEFAULT_CONFIG, CacheLevelConfig, Simulator
from repro.machine.config import TlbConfig
from repro.machine.metrics import CacheStats


class RefCache:
    """Set-associative LRU cache, one list of tags per set."""

    def __init__(self, config):
        line = config.line_bytes
        self.line_shift = line.bit_length() - 1
        n_lines = config.size_bytes // line
        self.assoc = config.assoc if config.assoc else n_lines
        self.n_sets = max(1, n_lines // self.assoc)
        self.set_mask = self.n_sets - 1
        self.sets = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def lookup(self, addr, allocate=True):
        line = addr >> self.line_shift
        ways = self.sets[line & self.set_mask]
        self.stats.accesses += 1
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        self.stats.misses += 1
        if allocate:
            ways.append(line)
            if len(ways) > self.assoc:
                ways.pop(0)
        return False

    def contains(self, addr):
        line = addr >> self.line_shift
        return line in self.sets[line & self.set_mask]


class RefTlb:
    """Fully associative LRU TLB."""

    def __init__(self, entries, page_bytes):
        self.entries = entries
        self.page_shift = page_bytes.bit_length() - 1
        self.pages = {}
        self.misses = 0

    def lookup(self, addr):
        page = addr >> self.page_shift
        if page in self.pages:
            del self.pages[page]
            self.pages[page] = None
            return True
        self.misses += 1
        self.pages[page] = None
        if len(self.pages) > self.entries:
            del self.pages[next(iter(self.pages))]
        return False


class RefMemory:
    """The lockup-free L1D, L1I, L2, L3 and D-TLB with the miss path."""

    def __init__(self, config):
        self.config = config
        self.l1d = RefCache(config.l1d)
        self.l1i = RefCache(config.l1i)
        self.l2 = RefCache(config.l2)
        self.l3 = RefCache(config.l3)
        self.dtlb = RefTlb(config.dtlb.entries, config.dtlb.page_bytes)
        self.mshr = {}
        self.heap = []

    def dload(self, addr, now):
        config = self.config
        latency_extra = 0
        if not self.dtlb.lookup(addr):
            latency_extra += config.dtlb.miss_penalty
        line = addr >> self.l1d.line_shift
        inflight = self.mshr.get(line)
        if inflight is not None and inflight > now:
            self.l1d.lookup(addr)
            return max(inflight - now, config.l1d.latency) + latency_extra, 0
        if self.l1d.lookup(addr):
            return config.l1d.latency + latency_extra, 0
        stall = 0
        heap = self.heap
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        if len(heap) >= config.mshr_entries:
            earliest = heap[0]
            stall = earliest - now
            now = earliest
            while heap and heap[0] <= now:
                heapq.heappop(heap)
        if len(self.mshr) > 64:
            for stale in [ln for ln, c in self.mshr.items() if c <= now]:
                del self.mshr[stale]
        if self.l2.lookup(addr):
            latency = config.l2.latency
        elif self.l3.lookup(addr):
            latency = config.l3.latency
        else:
            latency = config.memory_latency
        latency += latency_extra
        completion = now + latency
        self.mshr[line] = completion
        heapq.heappush(heap, completion)
        return latency, stall

    def dstore(self, addr):
        self.dtlb.lookup(addr)
        if not self.l1d.contains(addr):
            self.l2.lookup(addr)

    def ifill_latency(self, addr):
        config = self.config
        if self.l2.lookup(addr):
            return config.l2.latency - config.l1i.latency
        if self.l3.lookup(addr):
            return config.l3.latency - config.l1i.latency
        return config.memory_latency - config.l1i.latency


HALT = assemble([("entry", [Instruction("HALT")])])


@st.composite
def small_configs(draw):
    """Levels of 1-4 sets and 1-3 ways, 2-4 TLB entries, 1-2 MSHRs."""
    def level(name, latency):
        line = draw(st.sampled_from([16, 32, 64]))
        sets = draw(st.sampled_from([1, 2, 4]))
        ways = draw(st.integers(1, 3))
        return CacheLevelConfig(name, sets * ways * line, ways, line,
                                latency)

    l1_latency = draw(st.integers(1, 3))
    l2_latency = l1_latency + draw(st.integers(0, 8))
    l3_latency = l2_latency + draw(st.integers(0, 15))
    return replace(
        DEFAULT_CONFIG,
        l1d=level("L1D", l1_latency), l1i=level("L1I", l1_latency),
        l2=level("L2", l2_latency), l3=level("L3", l3_latency),
        memory_latency=l3_latency + draw(st.integers(0, 40)),
        dtlb=TlbConfig(draw(st.integers(2, 4)),
                       draw(st.sampled_from([64, 256, 1024])),
                       draw(st.integers(0, 30))),
        mshr_entries=draw(st.integers(1, 2)))


@st.composite
def accesses(draw, hot, cold):
    """(kind, byte address, cycles since the previous access).  Half the
    addresses come from a small per-stream pool drawn from *hot*, so
    lines, sets and pages are reused, refreshed and evicted; the rest
    are below *cold* and mostly miss, enough in a long stream to grow
    the MSHR table past its cleanup size.  Half the gaps are 0-3
    cycles, so loads meet misses in flight, down to their last cycle,
    and all MSHRs busy.  A seeded generator expands
    the stream: drawing 400 accesses element by element made each
    example cost about 0.1 s to generate."""
    pool = draw(st.lists(hot, min_size=1, max_size=12))
    n = draw(st.integers(1, 400))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return [(rnd.choice(("load", "load", "store", "fetch")),
             rnd.choice(pool) if rnd.random() < 0.5
             else rnd.randrange(cold + 1),
             rnd.randrange(4) if rnd.random() < 0.5
             else rnd.randrange(61)) for _ in range(n)]


LEVELS = ("l1d", "l1i", "l2", "l3")


def _run_both(config, stream):
    ref = RefMemory(config)
    sim = Simulator(HALT, config=config, mode="reference")
    now = 0
    for step, (kind, addr, gap) in enumerate(stream):
        now += gap
        if kind == "load":
            got = sim._dload(addr, now)
            assert got == ref.dload(addr, now), step
            now += got[1]
        elif kind == "store":
            assert sim._dstore(addr) is ref.dstore(addr) is None
        else:
            hit = sim.l1i.lookup(addr)
            assert hit == ref.l1i.lookup(addr), step
            if not hit:
                assert sim._ifill_latency(addr) == \
                    ref.ifill_latency(addr), step
        assert [getattr(sim, level).stats for level in LEVELS] == \
            [getattr(ref, level).stats for level in LEVELS], step
        assert sim.dtlb.stats.misses == ref.dtlb.misses, step
        assert sim._mshr == ref.mshr, step


@settings(max_examples=150, deadline=None)
@given(small_configs(), accesses(st.integers(0, 4095), 1 << 16))
def test_memory_path_matches_reference_on_small_geometries(config, stream):
    _run_both(config, stream)


@settings(max_examples=30, deadline=None)
@given(accesses(st.integers(0, 127).map(lambda k: k << 13), 1 << 22))
def test_memory_path_matches_reference_on_default_config(stream):
    _run_both(DEFAULT_CONFIG, stream)
