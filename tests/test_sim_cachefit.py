"""Cross-validation: analytic residency vs the event-accurate cache sim.

The residency analysis (:mod:`repro.sim.cache_fit`) makes claims about
which level serves each GEBP stream; these tests replay real GEBP address
streams through the set-associative hierarchy and check the claims hold —
the honest link between the closed-form model and the simulated machine.
"""

import pytest

from repro.arch import XGENE
from repro.blocking import CacheBlocking, solve_cache_blocking
from repro.errors import SimulationError
from repro.kernels import KERNEL_4X4, KERNEL_8X4, KERNEL_8X6
from repro.memory import MemoryHierarchy
from repro.memory.prefetcher import DropPattern
from repro.sim import analyze_residency, simulate_gebp_cache


class TestDropPattern:
    def test_rate_zero_never_drops(self):
        d = DropPattern(0.0)
        assert not any(d.dropped() for _ in range(100))

    def test_rate_one_always_drops(self):
        d = DropPattern(1.0)
        assert all(d.dropped() for _ in range(100))

    def test_rate_third(self):
        d = DropPattern(1 / 3)
        drops = sum(d.dropped() for _ in range(300))
        assert drops == pytest.approx(100, abs=2)

    def test_validation(self):
        with pytest.raises(SimulationError):
            DropPattern(1.5)


class TestGebpCacheSim:
    def test_paper_blocking_low_miss_rate(self):
        """With the derived blocking and both prefetchers, the L1 miss
        rate sits in the paper's 3-6% band (Table VII)."""
        blk = solve_cache_blocking(XGENE, 8, 6)
        r = simulate_gebp_cache(KERNEL_8X6, blk)
        assert 0.02 < r.l1_load_miss_rate < 0.07

    def test_all_three_kernels_in_band(self):
        for spec in (KERNEL_8X6, KERNEL_8X4, KERNEL_4X4):
            blk = solve_cache_blocking(XGENE, spec.mr, spec.nr)
            r = simulate_gebp_cache(spec, blk)
            assert 0.02 < r.l1_load_miss_rate < 0.08, spec.name

    def test_4x4_worst_miss_rate(self):
        """Table VII: 4x4 has the highest miss rate of the three."""
        rates = {}
        for spec in (KERNEL_8X6, KERNEL_8X4, KERNEL_4X4):
            blk = solve_cache_blocking(XGENE, spec.mr, spec.nr)
            rates[spec.name] = simulate_gebp_cache(spec, blk).l1_load_miss_rate
        assert rates["4x4"] > rates["8x6"]
        assert rates["4x4"] > rates["8x4"]

    def test_miss_rate_not_the_whole_story(self):
        """The paper's closing point: 8x6 does NOT have the lowest miss
        rate (8x4 does), yet performs the fewest loads and wins overall."""
        blk86 = solve_cache_blocking(XGENE, 8, 6)
        blk84 = solve_cache_blocking(XGENE, 8, 4)
        r86 = simulate_gebp_cache(KERNEL_8X6, blk86)
        r84 = simulate_gebp_cache(KERNEL_8X4, blk84)
        assert r84.l1_load_miss_rate < r86.l1_load_miss_rate
        # Loads normalized per flop: 8x6 issues fewer.
        flops86 = 2 * blk86.mc * blk86.kc * 36
        flops84 = 2 * blk84.mc * blk84.kc * 24
        assert r86.l1_loads / flops86 < r84.l1_loads / flops84

    def test_prefetch_off_much_worse(self):
        blk = solve_cache_blocking(XGENE, 8, 6)
        on = simulate_gebp_cache(KERNEL_8X6, blk)
        off = simulate_gebp_cache(
            KERNEL_8X6, blk, prefetch=False, hw_late=1.0
        )
        assert off.l1_load_miss_rate > 2 * on.l1_load_miss_rate

    def test_oversized_kc_thrashes_l1(self):
        """When the B sliver exceeds its L1 reservation (eq. (15)
        violated), bare-cache misses rise — validating the residency
        analysis. Prefetchers are disabled so the raw residency effect is
        visible (with them on, both configs stream successfully and the
        difference moves to L2 traffic instead)."""
        good = solve_cache_blocking(XGENE, 8, 6)
        bad = CacheBlocking(8, 6, 2048, 56, 1920, 1, 2, 1)
        assert analyze_residency(XGENE, bad).b_sliver_level == 2
        r_good = simulate_gebp_cache(
            KERNEL_8X6, good, prefetch=False, hw_late=1.0, nc_slice=12
        )
        r_bad = simulate_gebp_cache(
            KERNEL_8X6, bad, prefetch=False, hw_late=1.0, nc_slice=12
        )
        # The violating config pulls more lines per kernel load through L2.
        assert (
            r_bad.l2_loads / r_bad.l1_loads
            >= r_good.l2_loads / r_good.l1_loads
        )

    def test_a_block_stays_in_l2(self):
        """The mc x kc A block must be served from L2, not DRAM: after the
        warm-up, a GEBP pass takes almost nothing from memory."""
        blk = solve_cache_blocking(XGENE, 8, 6)
        r = simulate_gebp_cache(KERNEL_8X6, blk)
        # A block + B slice span ~4900 lines; a thrashing GEBP would pull
        # them from DRAM every pass (6 passes here).
        assert r.dram_accesses < 1000

    def test_shared_hierarchy_two_cores(self):
        """Two cores on one module share the L2: their combined A blocks
        with the serial mc=56 overflow it (eq. (19)'s motivation)."""
        blk_serial = solve_cache_blocking(XGENE, 8, 6, threads=1)
        blk_parallel = solve_cache_blocking(XGENE, 8, 6, threads=8)

        def combined_l2_misses(blk):
            h = MemoryHierarchy(XGENE)
            simulate_gebp_cache(KERNEL_8X6, blk, core=0, hierarchy=h)
            simulate_gebp_cache(KERNEL_8X6, blk, core=1, hierarchy=h)
            stats = h.l2_stats(0)
            return stats.misses / max(1, stats.accesses)

        assert combined_l2_misses(blk_parallel) <= combined_l2_misses(
            blk_serial
        ) + 1e-9

    def test_kernel_load_count_matches_structure(self):
        blk = solve_cache_blocking(XGENE, 8, 6)
        r = simulate_gebp_cache(KERNEL_8X6, blk, nc_slice=12)
        tiles = (blk.mc // 8) * (12 // 6)
        assert r.kernel_loads == tiles * blk.kc * 7
