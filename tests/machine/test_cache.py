"""Cache, TLB and branch-predictor models."""

import pytest

from repro.machine import BranchPredictor, Cache, CacheLevelConfig, Tlb


def small_cache(size=256, assoc=1, line=32):
    return Cache(CacheLevelConfig("T", size, assoc, line, 2))


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0)
        assert cache.lookup(0)
        assert cache.lookup(31)           # same 32-byte line
        assert not cache.lookup(32)       # next line

    def test_direct_mapped_conflict(self):
        cache = small_cache(size=64, assoc=1, line=32)  # 2 sets
        assert not cache.lookup(0)
        assert not cache.lookup(64)       # same set, evicts line 0
        assert not cache.lookup(0)        # miss again

    def test_two_way_avoids_conflict(self):
        cache = small_cache(size=128, assoc=2, line=32)  # 2 sets, 2-way
        cache.lookup(0)
        cache.lookup(64)
        assert cache.lookup(0)
        assert cache.lookup(64)

    def test_lru_replacement(self):
        cache = small_cache(size=128, assoc=2, line=32)
        cache.lookup(0)       # set 0
        cache.lookup(64)      # set 0
        cache.lookup(0)       # refresh 0 -> 64 is LRU
        cache.lookup(128)     # evicts 64
        assert cache.lookup(0)
        assert not cache.lookup(64)

    def test_no_allocate_probe(self):
        cache = small_cache()
        cache.lookup(0, allocate=False)
        assert not cache.contains(0)

    def test_stats(self):
        cache = small_cache()
        cache.lookup(0)
        cache.lookup(0)
        cache.lookup(32)
        assert cache.stats.accesses == 3
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1

    def test_fully_associative(self):
        cache = Cache(CacheLevelConfig("F", 128, 0, 32, 2))
        for addr in (0, 64, 128, 192):
            cache.lookup(addr)
        assert all(cache.contains(a) for a in (0, 64, 128, 192))

    def test_sets_allocated_on_first_fill(self):
        cache = small_cache(size=256, assoc=2)   # 4 sets of 2 ways
        cache.lookup(0, allocate=False)
        assert cache.sets == [None] * 4
        cache.lookup(0)
        assert cache.sets == [[0], None, None, None]

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheLevelConfig("X", 96, 1, 33, 2))


class TestTlb:
    def test_page_granularity(self):
        tlb = Tlb(entries=4, page_bytes=8192)
        assert not tlb.lookup(0)
        assert tlb.lookup(8191)
        assert not tlb.lookup(8192)

    def test_lru_eviction(self):
        tlb = Tlb(entries=2, page_bytes=8192)
        tlb.lookup(0)
        tlb.lookup(8192)
        tlb.lookup(0)              # refresh page 0
        tlb.lookup(16384)          # evicts page 1
        assert tlb.lookup(0)
        assert not tlb.lookup(8192)

    def test_miss_count(self):
        tlb = Tlb(entries=4, page_bytes=8192)
        tlb.lookup(0)
        tlb.lookup(0)
        tlb.lookup(8192)
        assert tlb.stats.misses == 2


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = BranchPredictor(entries=64)
        results = [predictor.predict_and_update(4, True) for _ in range(6)]
        assert results[-1]                 # converged to taken
        assert not all(results)            # initial miss allowed

    def test_learns_not_taken_immediately(self):
        predictor = BranchPredictor(entries=64)
        assert predictor.predict_and_update(4, False)  # weakly not-taken

    def test_alternating_pattern_mispredicts(self):
        predictor = BranchPredictor(entries=64)
        outcomes = [bool(i % 2) for i in range(40)]
        correct = sum(predictor.predict_and_update(8, t) for t in outcomes)
        assert correct < 30                # 2-bit counters struggle

    def test_distinct_pcs_use_distinct_counters(self):
        predictor = BranchPredictor(entries=64)
        for _ in range(4):
            predictor.predict_and_update(1, True)
            predictor.predict_and_update(2, False)
        assert predictor.predict_and_update(1, True)
        assert predictor.predict_and_update(2, False)

    def test_mispredict_count(self):
        predictor = BranchPredictor(entries=64)
        predictor.predict_and_update(0, True)   # weakly NT -> wrong
        predictor.predict_and_update(0, True)   # weakly T?  counter was 1->2
        assert predictor.mispredicts >= 1
