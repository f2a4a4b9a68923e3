"""Unit tests for the multi-core memory hierarchy and TLB."""

import dataclasses

import pytest

from repro.arch import XGENE, ReplacementPolicy, TlbParams, single_core
from repro.arch.params import WritePolicy
from repro.errors import SimulationError
from repro.memory import KIND_STORE, MemoryHierarchy, Tlb, run_trace_levels


class TestTopology:
    def test_counts(self):
        h = MemoryHierarchy(XGENE)
        assert len(h.l1) == 8
        assert len(h.l2) == 4
        assert h.l3 is not None

    def test_module_mapping(self):
        h = MemoryHierarchy(XGENE)
        assert h.module_of(0) == 0
        assert h.module_of(1) == 0
        assert h.module_of(2) == 1
        assert h.module_of(7) == 3

    def test_core_out_of_range(self):
        h = MemoryHierarchy(XGENE)
        with pytest.raises(SimulationError):
            h.access_line(8, 0)

    @pytest.mark.parametrize("module", [-1, 4])
    def test_l2_stats_module_out_of_range(self, module):
        h = MemoryHierarchy(XGENE)
        with pytest.raises(SimulationError):
            h.l2_stats(module)
        with pytest.raises(SimulationError):
            h.l1_stats(2 * module)

    def test_levels_for_core(self):
        h = MemoryHierarchy(XGENE)
        path = h.levels_for(3)
        assert path[0] is h.l1[3]
        assert path[1] is h.l2[1]
        assert path[2] is h.l3


class TestAccessWalk:
    def test_cold_access_reaches_dram(self):
        h = MemoryHierarchy(XGENE)
        res = h.access_line(0, 100)
        assert res.level_hit == 4  # past L1, L2, L3
        assert res.latency_cycles == XGENE.dram.latency_cycles
        assert h.dram_accesses == 1

    def test_second_access_hits_l1(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        res = h.access_line(0, 100)
        assert res.level_hit == 1
        assert res.latency_cycles == XGENE.l1d.latency_cycles

    def test_allocation_fills_all_levels(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        assert h.l1[0].contains_line(100)
        assert h.l2[0].contains_line(100)
        assert h.l3.contains_line(100)

    def test_sharing_within_module(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)    # core 0 warms module 0's L2
        res = h.access_line(1, 100)  # core 1 shares that L2
        assert res.level_hit == 2

    def test_sharing_across_modules_via_l3(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        res = h.access_line(2, 100)  # different module: miss L1+L2, hit L3
        assert res.level_hit == 3

    def test_access_bytes_line_split(self):
        h = MemoryHierarchy(XGENE)
        results = h.access_bytes(0, 60, 8)  # crosses the 64B boundary
        assert len(results) == 2

    def test_access_bytes_empty(self):
        h = MemoryHierarchy(XGENE)
        assert h.access_bytes(0, 0, 0) == []

    def test_store_traffic_counted(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 5, KIND_STORE)
        assert h.l1_stats(0).stores == 1


class TestPrefetch:
    def test_prefetch_l1_makes_demand_hit(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=1)
        res = h.access_line(0, 42)
        assert res.level_hit == 1
        # Prefetch traffic does not count as demand loads.
        assert h.l1_stats(0).loads == 1
        assert h.l1_stats(0).prefetches == 1

    def test_prefetch_l2_skips_l1(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=2)
        assert not h.l1[0].contains_line(42)
        res = h.access_line(0, 42)
        assert res.level_hit == 2

    def test_prefetch_bad_level(self):
        h = MemoryHierarchy(XGENE)
        with pytest.raises(SimulationError):
            h.prefetch_line(0, 42, target_level=9)

    def test_prefetch_idempotent(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=1)
        h.prefetch_line(0, 42, target_level=1)
        assert h.l1_stats(0).prefetches == 2
        assert h.l1_stats(0).prefetch_misses == 1


class TestStatsAndReset:
    def test_merged_l1_stats(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        h.access_line(3, 2)
        assert h.l1_stats().loads == 2

    def test_flush_then_miss(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        h.flush()
        res = h.access_line(0, 1)
        assert res.level_hit == 4

    def test_reset_stats(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        h.reset_stats()
        assert h.l1_stats().accesses == 0
        assert h.dram_accesses == 0

    def test_l2_l3_stats_access(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        assert h.l2_stats(0).loads == 1
        assert h.l2_stats().loads == 1
        assert h.l3_stats().loads == 1

    def test_no_l3_chip(self):
        chip = single_core(XGENE)
        import dataclasses
        chip2 = dataclasses.replace(chip, l3=None)
        h = MemoryHierarchy(chip2)
        res = h.access_line(0, 0)
        assert res.level_hit == 3  # DRAM directly after L2
        assert h.l3_stats().accesses == 0


class TestTlb:
    def test_tlb_hit_miss(self):
        t = Tlb(TlbParams(entries=2, page_bytes=4096))
        assert t.access_page(0) is False
        assert t.access_page(0) is True
        t.access_page(1)
        t.access_page(2)  # evicts page 0 (LRU, capacity 2)
        assert t.access_page(0) is False
        assert t.stats.accesses == 5

    def test_tlb_line_to_page(self):
        t = Tlb(TlbParams(entries=8, page_bytes=4096))
        t.access_line(0, 64)
        assert t.access_line(63, 64) is True   # same 4K page
        assert t.access_line(64, 64) is False  # next page

    def test_hierarchy_with_tlb(self):
        h = MemoryHierarchy(XGENE, with_tlb=True)
        res1 = h.access_line(0, 0)
        assert res1.tlb_miss is True
        res2 = h.access_line(0, 0)
        assert res2.tlb_miss is False
        # TLB miss penalty charged on top of the level latency.
        assert res1.latency_cycles == (
            XGENE.dram.latency_cycles + XGENE.tlb.miss_penalty_cycles
        )

    def test_tlb_reset(self):
        t = Tlb(TlbParams())
        t.access_page(1)
        t.flush()
        t.reset_stats()
        assert t.stats.accesses == 0
        assert t.access_page(1) is False


class TestRunBatchLevels:
    """Per-access level/latency replay vs the scalar engine oracle."""

    def _trace(self, seed=0, n=400):
        import numpy as np

        from repro.memory import BatchTrace
        from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE

        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            r = rng.random()
            addr = int(rng.integers(0, 1 << 16))
            if r < 0.15:
                rows.append((addr, 1, CODE_PREFETCH,
                             int(rng.integers(1, 4))))
            elif r < 0.3:
                rows.append((addr, 8, CODE_STORE, 1))
            else:
                # Widths up to 96 bytes cross line boundaries.
                rows.append((addr, int(rng.integers(1, 96)), CODE_LOAD, 1))
        return BatchTrace.from_rows(rows)

    def _compare(self, with_tlb, chip=XGENE, seed=None):
        import numpy as np

        trace = self._trace()
        h_fast = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        h_ref = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        lv_fast, lat_fast = h_fast.run_batch_levels(0, trace)
        lv_ref, lat_ref = run_trace_levels(h_ref, 0, trace)
        assert np.array_equal(lv_fast, lv_ref)
        assert np.array_equal(lat_fast, lat_ref)
        for name, cache in h_fast.all_caches().items():
            assert cache.stats == h_ref.all_caches()[name].stats, name
        assert h_fast.dram_accesses == h_ref.dram_accesses
        assert [t and t.stats for t in h_fast.tlbs] == [
            t and t.stats for t in h_ref.tlbs
        ]

    def test_matches_scalar_engine(self):
        self._compare(with_tlb=False)

    def test_matches_scalar_engine_with_tlb(self):
        self._compare(with_tlb=True)

    @pytest.mark.parametrize(
        "policy, write_through, seed, with_tlb",
        [
            (ReplacementPolicy.LRU, (), None, False),
            (ReplacementPolicy.PLRU, (), None, False),
            (ReplacementPolicy.RANDOM, (), 7, False),
            (ReplacementPolicy.LRU, ("l1d",), None, False),
            (ReplacementPolicy.LRU, ("l1d", "l2"), None, True),
            (ReplacementPolicy.PLRU, ("l1d",), None, True),
            (ReplacementPolicy.RANDOM, ("l1d", "l2", "l3"), 3, True),
        ],
        ids=[
            "lru", "plru", "random", "wt-l1", "wt-l1-l2-tlb",
            "plru-wt-l1-tlb", "random-wt-all-tlb",
        ],
    )
    def test_matches_scalar_reference(
        self, policy, write_through, seed, with_tlb
    ):
        """A shrunk X-Gene, so the trace evicts at every level and in
        the TLB."""
        sizes = {"l1d": 2048, "l2": 4096, "l3": 8192}
        levels = {
            name: dataclasses.replace(
                getattr(XGENE, name),
                size_bytes=size,
                ways=4,
                replacement=policy,
                write_policy=(
                    WritePolicy.WRITE_THROUGH if name in write_through
                    else getattr(XGENE, name).write_policy
                ),
            )
            for name, size in sizes.items()
        }
        tlb = dataclasses.replace(XGENE.tlb, entries=4)
        chip = dataclasses.replace(XGENE, tlb=tlb, **levels)
        self._compare(with_tlb, chip=chip, seed=seed)

    def test_prefetch_level_out_of_range(self):
        from repro.memory import BatchTrace
        from repro.memory.cache import CODE_PREFETCH

        h = MemoryHierarchy(XGENE)
        trace = BatchTrace.from_rows([(0, 1, CODE_PREFETCH, 9)])
        with pytest.raises(SimulationError):
            h.run_batch_levels(0, trace)
