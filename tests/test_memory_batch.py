"""Unit tests for the batched trace representation and vectorized engine.

The scalar per-access path is the oracle throughout: every test that runs
the batched engine checks its counters against an identical hierarchy (or
cache) driven through :func:`run_trace` / ``access_line``.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.arch import CacheParams, ReplacementPolicy
from repro.arch.params import WritePolicy
from repro.arch.presets import MOBILE_SOC, XGENE
from repro.blocking import solve_cache_blocking
from repro.errors import SimulationError
from repro.kernels import KERNEL_8X6
from repro.memory import (
    Access,
    BatchTrace,
    Cache,
    MemoryHierarchy,
    compile_trace,
    contiguous_trace,
    run_trace,
    strided_matrix_trace,
    warm_region,
)
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE
from repro.sim import gebp_traces, simulate_gebp_cache


def small_chip(policy=ReplacementPolicy.LRU, base=XGENE):
    """A shrunk chip so tests exercise evictions with tiny traces."""
    repl = {}
    repl["l1d"] = dataclasses.replace(
        base.l1d, size_bytes=2048, ways=2, replacement=policy
    )
    repl["l2"] = dataclasses.replace(
        base.l2, size_bytes=4096, ways=4, replacement=policy
    )
    if base.l3:
        repl["l3"] = dataclasses.replace(
            base.l3, size_bytes=8192, ways=4, replacement=policy
        )
    return dataclasses.replace(base, **repl)


def l1_cache(policy=ReplacementPolicy.LRU, rng=None):
    return Cache(
        CacheParams(
            name="L1D", size_bytes=1024, line_bytes=64, ways=2,
            latency_cycles=4, replacement=policy,
        ),
        rng=rng,
    )


class TestBatchTrace:
    def test_round_trip_through_iter(self):
        accs = [
            Access(0, 16, "load"),
            Access(100, 8, "store"),
            Access(4096, 1, "prefetch", level=2),
        ]
        trace = BatchTrace.from_accesses(accs)
        assert len(trace) == 3
        assert list(trace) == accs

    def test_compile_trace_of_generators(self):
        gen = list(strided_matrix_trace(0, 8, 4, 16))
        trace = compile_trace(strided_matrix_trace(0, 8, 4, 16))
        assert list(trace) == gen

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            BatchTrace.from_accesses([Access(0, 8, "fetch")])

    def test_from_rows_and_views(self):
        trace = BatchTrace.from_rows(
            [(64, 8, CODE_LOAD, 1), (128, 8, CODE_STORE, 1)]
        )
        assert list(trace.addresses) == [64, 128]
        assert list(trace.kinds) == [CODE_LOAD, CODE_STORE]

    def test_concat_preserves_order(self):
        a = BatchTrace.from_rows([(0, 8, CODE_LOAD, 1)])
        b = BatchTrace.from_rows([(64, 8, CODE_STORE, 1)])
        both = BatchTrace.concat([a, b])
        assert list(both.addresses) == [0, 64]
        assert len(BatchTrace.concat([])) == 0

    def test_shifted_relocates_addresses(self):
        trace = BatchTrace.from_rows([(0, 8, CODE_LOAD, 1)])
        assert trace.shifted(0) is trace
        moved = trace.shifted(1 << 20)
        assert moved.addresses[0] == 1 << 20
        assert trace.addresses[0] == 0  # original untouched

    def test_expand_lines_demand_spans(self):
        # 8 bytes starting at 60 cross the line boundary at 64.
        trace = BatchTrace.from_rows([(60, 8, CODE_LOAD, 1)])
        lines, kinds, _ = trace.expand_lines(64)
        assert list(lines) == [0, 1]
        assert list(kinds) == [CODE_LOAD, CODE_LOAD]

    def test_expand_lines_zero_bytes_is_empty(self):
        trace = BatchTrace.from_rows([(60, 0, CODE_LOAD, 1)])
        assert trace.line_count(64) == 0

    def test_expand_lines_prefetch_is_one_line(self):
        # Scalar run_trace touches exactly address//line for a prefetch,
        # whatever nbytes says.
        trace = BatchTrace.from_rows([(100, 4096, CODE_PREFETCH, 2)])
        lines, _, levels = trace.expand_lines(64)
        assert list(lines) == [1]
        assert list(levels) == [2]

    def test_expand_lines_cached_per_line_size(self):
        trace = BatchTrace.from_rows([(0, 128, CODE_LOAD, 1)])
        first = trace.expand_lines(64)
        assert trace.expand_lines(64) is first
        assert trace.line_count(32) == 4


class TestBatchedCache:
    def run_both(self, lines, kinds, tail_min=None, policy=ReplacementPolicy.LRU):
        c_scalar = l1_cache(policy, rng=random.Random(7))
        c_batched = l1_cache(policy, rng=random.Random(7))
        kind_names = {CODE_LOAD: "load", CODE_STORE: "store",
                      CODE_PREFETCH: "prefetch"}
        scalar_hits = [
            c_scalar.access_line(int(ln), kind_names[int(k)])
            for ln, k in zip(lines, kinds)
        ]
        kwargs = {} if tail_min is None else {"tail_min": tail_min}
        batched_hits = c_batched.access_lines_batched(
            np.asarray(lines, dtype=np.int64),
            np.asarray(kinds, dtype=np.int8),
            **kwargs,
        )
        assert list(batched_hits) == scalar_hits
        assert c_scalar.stats == c_batched.stats
        assert c_scalar.resident_lines() == c_batched.resident_lines()
        return c_batched

    def adversarial_stream(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        lines = np.repeat(rng.integers(0, 64, size=n // 3), 3)[:n]
        kinds = np.where(
            rng.random(n) < 0.3, CODE_STORE, CODE_LOAD
        ).astype(np.int8)
        kinds[rng.random(n) < 0.1] = CODE_PREFETCH
        return lines.astype(np.int64), kinds

    def test_vector_path_matches_scalar(self):
        lines, kinds = self.adversarial_stream()
        c = self.run_both(lines, kinds, tail_min=0)
        assert c.batched_accesses == len(lines)
        assert c.batched_fallback_accesses == 0

    def test_tail_path_matches_scalar(self):
        # A huge tail_min forces every round through the per-access tail.
        lines, kinds = self.adversarial_stream(seed=1)
        self.run_both(lines, kinds, tail_min=10**9)

    def test_single_set_exercises_runs_and_rounds(self):
        # One set (8 lines * stride num_sets) maximises run compression
        # and in-set ordering effects.
        pattern = [0, 8, 8, 16, 0, 24, 8, 0, 32, 16, 8, 40, 0]
        lines = np.array(pattern * 40, dtype=np.int64)
        kinds = np.tile(
            [CODE_LOAD, CODE_STORE, CODE_LOAD], len(lines) // 3 + 1
        )[: len(lines)].astype(np.int8)
        self.run_both(lines, kinds, tail_min=0)
        self.run_both(lines, kinds, tail_min=10**9)

    def test_non_lru_policies_fall_back_identically(self):
        for policy in (ReplacementPolicy.RANDOM, ReplacementPolicy.PLRU):
            lines, kinds = self.adversarial_stream(seed=2)
            c = self.run_both(lines, kinds, policy=policy)
            assert c.batched_fallback_accesses == len(lines)

    def test_scalar_then_batched_then_scalar(self):
        # Mode conversion must carry LRU state both ways.
        twin = l1_cache()
        c = l1_cache()
        warm = [0, 8, 16, 0, 24]
        for ln in warm:
            assert c.access_line(ln) == twin.access_line(ln)
        batch = np.array([8, 32, 0, 16, 40, 8], dtype=np.int64)
        hits = c.access_lines_batched(
            batch, np.zeros(len(batch), dtype=np.int8)
        )
        assert list(hits) == [twin.access_line(int(ln)) for ln in batch]
        for ln in (40, 24, 0):
            assert c.access_line(ln) == twin.access_line(ln)
        assert c.stats == twin.stats

    def test_set_contents_consistent_across_modes(self):
        twin = l1_cache()
        c = l1_cache()
        for ln in (0, 8, 16, 8, 24):  # all map to set 0 (8 sets, 2 ways)
            twin.access_line(ln)
            c.access_line(ln)
        c.access_lines_batched(
            np.array([32], dtype=np.int64), np.zeros(1, dtype=np.int8)
        )
        twin.access_line(32)
        for s in range(8):
            assert c.set_contents(s) == twin.set_contents(s)
        with pytest.raises(SimulationError):
            c.set_contents(99)

    def test_flush_in_array_mode(self):
        c = l1_cache()
        c.access_lines_batched(
            np.array([0, 8, 16], dtype=np.int64), np.zeros(3, dtype=np.int8)
        )
        assert c.contains_line(8)
        c.flush()
        assert c.resident_lines() == 0
        assert not c.contains_line(8)

    def test_validation_errors(self):
        c = l1_cache()
        with pytest.raises(SimulationError):
            c.access_lines_batched(
                np.array([0, 1], dtype=np.int64), np.zeros(1, dtype=np.int8)
            )
        with pytest.raises(SimulationError):
            c.access_lines_batched(
                np.array([0], dtype=np.int64), np.array([5], dtype=np.int8)
            )
        with pytest.raises(SimulationError):
            c.access_lines_batched(
                np.array([-1], dtype=np.int64), np.zeros(1, dtype=np.int8)
            )


class TestRunBatch:
    def generator_trace(self):
        return (
            list(strided_matrix_trace(0, 48, 12, 64))
            + list(contiguous_trace(1 << 16, 4096, "store"))
            + [Access(1 << 18, 1, "prefetch", level=2)]
            + list(contiguous_trace(1 << 18, 2048))
        )

    def compare(self, chip, accesses, core=0, seed=None, with_tlb=False):
        trace = BatchTrace.from_accesses(accesses)
        h_s = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        h_b = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        cost_s = run_trace(h_s, core, trace)
        cost_b = h_b.run_batch(core, trace)
        assert cost_s == cost_b
        assert h_s.l1_stats() == h_b.l1_stats()
        assert h_s.l2_stats() == h_b.l2_stats()
        assert h_s.l3_stats() == h_b.l3_stats()
        assert h_s.dram_accesses == h_b.dram_accesses
        if with_tlb:
            assert h_s.tlbs[core].stats == h_b.tlbs[core].stats
        return cost_b

    def test_matches_run_trace_on_generator_traces(self):
        cost = self.compare(small_chip(), self.generator_trace())
        assert cost.accesses > 0
        assert cost.latency_cycles > 0

    def test_matches_on_mobile_chip_without_l3(self):
        self.compare(
            small_chip(base=MOBILE_SOC),
            [a for a in self.generator_trace() if a.kind != "prefetch"],
        )

    def test_matches_with_tlb(self):
        self.compare(small_chip(), self.generator_trace(), with_tlb=True)

    def test_matches_under_random_replacement_with_seed(self):
        self.compare(
            small_chip(ReplacementPolicy.RANDOM),
            self.generator_trace(),
            seed=11,
        )

    def test_write_through_levels_stay_batched(self):
        """Write-through hierarchies run the batched store-propagation
        walk (they used to bail out to the scalar oracle wholesale)."""
        chip = small_chip()
        chip = dataclasses.replace(
            chip,
            l1d=dataclasses.replace(
                chip.l1d, write_policy=WritePolicy.WRITE_THROUGH
            ),
        )
        self.compare(chip, self.generator_trace())
        h = MemoryHierarchy(chip)
        h.run_batch(0, BatchTrace.from_accesses(self.generator_trace()))
        assert h.l1[0].batched_accesses > 0
        assert h.batched_fallback_accesses() == 0

    def test_write_through_chain_matches_scalar(self):
        """Every level write-through: propagated stores chain to DRAM and
        counters stay bit-identical to the scalar replay."""
        chip = small_chip()
        chip = dataclasses.replace(
            chip,
            l1d=dataclasses.replace(
                chip.l1d, write_policy=WritePolicy.WRITE_THROUGH
            ),
            l2=dataclasses.replace(
                chip.l2, write_policy=WritePolicy.WRITE_THROUGH
            ),
        )
        self.compare(chip, self.generator_trace())

    def test_prefetch_target_out_of_range(self):
        chip = small_chip()
        h = MemoryHierarchy(chip)
        bad = BatchTrace.from_accesses([Access(0, 1, "prefetch", level=9)])
        with pytest.raises(SimulationError):
            h.run_batch(0, bad)

    def test_empty_trace(self):
        h = MemoryHierarchy(small_chip())
        cost = h.run_batch(0, BatchTrace.from_rows([]))
        assert cost.accesses == 0
        assert cost.latency_cycles == 0


class TestGebpEngineWiring:
    def test_engines_bit_identical_on_gebp(self):
        blk = solve_cache_blocking(XGENE, 8, 6)
        results = {
            engine: simulate_gebp_cache(
                KERNEL_8X6, blk, nc_slice=6, engine=engine
            )
            for engine in ("scalar", "batched", "auto")
        }
        assert results["scalar"] == results["batched"] == results["auto"]
        assert results["scalar"].kernel_loads > 0

    def test_unknown_engine_rejected(self):
        blk = solve_cache_blocking(XGENE, 8, 6)
        with pytest.raises(SimulationError):
            simulate_gebp_cache(KERNEL_8X6, blk, engine="turbo")

    def test_gebp_traces_shared_across_cores(self):
        blk = solve_cache_blocking(XGENE, 8, 6)
        w0, m0, loads0 = gebp_traces(KERNEL_8X6, blk, nc_slice=6)
        w1, m1, loads1 = gebp_traces(KERNEL_8X6, blk, core=3, nc_slice=6)
        assert loads0 == loads1
        assert len(m0) == len(m1)
        offset = 3 * (1 << 30)
        assert (m1.addresses - m0.addresses == offset).all()
        assert (w1.addresses - w0.addresses == offset).all()

    def test_seed_reproducible_under_random_policy(self):
        chip = dataclasses.replace(
            XGENE,
            l1d=dataclasses.replace(
                XGENE.l1d, replacement=ReplacementPolicy.RANDOM
            ),
        )
        blk = solve_cache_blocking(chip, 8, 6)
        a = simulate_gebp_cache(KERNEL_8X6, blk, chip=chip, nc_slice=6,
                                seed=42)
        b = simulate_gebp_cache(KERNEL_8X6, blk, chip=chip, nc_slice=6,
                                seed=42)
        assert a == b

    def test_gemm_simulator_cache_sim(self):
        from repro.sim import GemmSimulator

        sim = GemmSimulator(XGENE)
        res = sim.cache_sim("OpenBLAS-8x6", nc_slice=6)
        assert 0.0 < res.l1_load_miss_rate < 0.2
        with pytest.raises(SimulationError):
            sim.cache_sim("bogus")


class TestWarmRegion:
    """warm_region must be indistinguishable from the per-line loop."""

    def _pair(self):
        return Cache(XGENE.l2), Cache(XGENE.l2)

    def test_state_and_stats_match_scalar_loop(self):
        batched, scalar = self._pair()
        base, nbytes, lb = 0x40000 + 24, 9 * 1024 + 40, XGENE.l2.line_bytes
        warm_region(batched, base, nbytes, lb)
        for off in range(0, nbytes, lb):
            scalar.access_line((base + off) // lb)
        assert batched.stats.accesses == scalar.stats.accesses
        assert batched.stats.misses == scalar.stats.misses
        # Probing every warmed line hits on both caches identically.
        for off in range(0, nbytes, lb):
            line = (base + off) // lb
            assert batched.access_line(line) == scalar.access_line(line)

    def test_empty_region_is_a_no_op(self):
        cache = Cache(XGENE.l1d)
        warm_region(cache, 0x1000, 0, XGENE.l1d.line_bytes)
        assert cache.stats.accesses == 0

    def test_capacity_eviction_matches(self):
        """Warming past capacity evicts the same lines in both paths."""
        batched, scalar = self._pair()
        lb = XGENE.l2.line_bytes
        nbytes = XGENE.l2.size_bytes + 16 * lb
        warm_region(batched, 0, nbytes, lb)
        for off in range(0, nbytes, lb):
            scalar.access_line(off // lb)
        probes = [0, 7, nbytes // lb - 1]
        for line in probes:
            assert batched.access_line(line) == scalar.access_line(line)
        assert batched.stats == scalar.stats
