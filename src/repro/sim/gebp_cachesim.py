"""Event-accurate cache simulation of GEBP (Table VII, Fig. 15 validation).

Replays the exact memory-access sequence of one GEBP call — packed-A
sliver loads, packed-B sliver loads, C tile read-modify-writes, and the
kernel's software prefetches — through the set-associative hierarchy of
:mod:`repro.memory`. Every 128-bit ``ldr`` of the register kernel becomes
one demand access, so the L1 counters correspond directly to the paper's
``L1-dcache-loads`` and ``L1-dcache-load-miss`` perf events.

Two prefetch mechanisms act on the streams, as on the real core:

- **software** (``PLDL1KEEP``/``PLDL2KEEP``): issued by the kernel at the
  PREFA/PREFB distances. Best-effort — dropped when the load queue is
  full, modeled by a deterministic drop pattern at rate ``prefetch_drop``.
- **hardware**: the core's tagged sequential prefetcher. Both the packed
  A and packed B streams are perfectly sequential inside the k-loop, so
  on every transition to a new line the next line is pulled in, except
  when the prefetch is late/dropped (rate ``hw_late``). Without this the
  B sliver cannot survive the A stream under true LRU — the residency
  the paper's eq. (15) assumes is delivered jointly by the reservation
  arithmetic and the sequential prefetcher.

With the default rates the measured miss rates land in the paper's
3-6% band (Table VII).

Cost is bounded by simulating a slice of the panel (``nc_slice`` columns)
after a warm-up pass; miss *rates* are steady-state after one sliver.

Both prefetch streams are pure functions of the demand addresses — the
drop patterns are deterministic and the sequential prefetcher only looks
at line transitions — so the whole access sequence is compiled **once per
GEBP shape** into a pair of :class:`~repro.memory.batch.BatchTrace`
objects (warm-up and main loop) and replayed through either engine:

- ``engine="batched"`` (and ``"auto"``): the vectorized
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch` sweep.
- ``engine="scalar"``: per-access :func:`~repro.memory.trace.run_trace`,
  kept as the bit-identical differential-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.engines import CACHE_ENGINES as ENGINES
from repro.errors import SimulationError
from repro.kernels.kernel_spec import KernelSpec
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import DropPattern, SequentialPrefetcher
from repro.memory.trace import run_trace
from repro.memory.warm_memo import WarmMemo
from repro.obs.metrics import MetricsRegistry

QWORD = 16

#: Warm-state snapshots carried across adjacent sweep points (see
#: ``simulate_gebp_cache(incremental=...)``). Keyed by everything that
#: determines the warm-up stream and the hierarchy it replays into —
#: the warm trace is independent of ``nc``-prefix position, so entries
#: hold ``(warm_rows_replayed, snapshot)`` and a sweep point whose warm
#: trace extends a cached one replays only the delta rows.
_WARM_MEMO = WarmMemo(32)


def clear_warm_memo() -> None:
    """Drop all carried warm-state snapshots (test-isolation hook)."""
    _WARM_MEMO.clear()


@dataclass(frozen=True)
class GebpCacheResult:
    """Cache behaviour of one simulated GEBP slice.

    Attributes:
        l1_loads: Demand 128-bit loads seen by the L1.
        l1_load_misses: Demand load misses.
        l1_load_miss_rate: The Table VII metric.
        l2_loads, l2_load_misses: Same, one level down.
        dram_accesses: Lines fetched from memory.
        kernel_loads: Loads issued by the register kernel alone.
    """

    l1_loads: int
    l1_load_misses: int
    l1_load_miss_rate: float
    l2_loads: int
    l2_load_misses: int
    dram_accesses: int
    kernel_loads: int


@lru_cache(maxsize=64)
def _gebp_trace(
    mr: int,
    nr: int,
    kc: int,
    mc: int,
    nc: int,
    line: int,
    prefetch: bool,
    prefetch_drop: float,
    hw_late: float,
    prefa_bytes: int,
) -> Tuple[BatchTrace, BatchTrace, int]:
    """Compile the GEBP access stream for one shape, at address base 0.

    Returns ``(warm, main, kernel_loads)``: the warm-up stores that model
    packing having written the A block / B panel, and the main-loop stream
    with demand loads, C updates and both prefetch streams interleaved in
    issue order. Addresses start at 0; callers relocate per core via
    :meth:`BatchTrace.shifted`. Cached per shape — the sweeps replay the
    same streams at every point.
    """
    a_base = 0
    b_base = 1 << 28
    c_base = 1 << 29
    elem = 8

    na = -(-mc // mr)
    nb = -(-nc // nr)

    warm_rows: List[Tuple[int, int, int, int]] = []
    for off in range(0, na * kc * mr * elem, line):
        warm_rows.append((a_base + off, 1, CODE_STORE, 1))
    for off in range(0, nb * kc * nr * elem, line):
        warm_rows.append((b_base + off, 1, CODE_STORE, 1))

    rows: List[Tuple[int, int, int, int]] = []
    drop = DropPattern(prefetch_drop if prefetch else 1.0)
    hw = SequentialPrefetcher(
        None,
        0,
        late_rate=hw_late,
        install=lambda ln, level: rows.append(
            (ln * line, 1, CODE_PREFETCH, level)
        ),
    )

    a_qloads_per_iter = -(-mr * elem // QWORD)
    b_qloads_per_iter = -(-nr * elem // QWORD)
    kernel_loads = 0

    def demand(addr: int, stream: Optional[str] = None) -> None:
        rows.append((addr, 1, CODE_LOAD, 1))
        if stream is not None:
            hw.observe(addr // line, stream)

    for j in range(nb):
        b_sliver = b_base + j * kc * nr * elem
        for i in range(na):
            a_sliver = a_base + i * kc * mr * elem
            # C tile load (column-major panel with leading dimension mc).
            for col in range(nr):
                c_col = c_base + (j * nr + col) * mc * elem + i * mr * elem
                for off in range(0, mr * elem, QWORD):
                    demand(c_col + off)
            # The k-loop.
            for k in range(kc):
                a_addr = a_sliver + k * mr * elem
                b_addr = b_sliver + k * nr * elem
                for q in range(a_qloads_per_iter):
                    demand(a_addr + q * QWORD, "A")
                    kernel_loads += 1
                for q in range(b_qloads_per_iter):
                    demand(b_addr + q * QWORD, "B")
                    kernel_loads += 1
                if prefetch:
                    pf_a = a_addr + prefa_bytes
                    if pf_a < a_sliver + kc * mr * elem and not drop.dropped():
                        rows.append(
                            ((pf_a // line) * line, 1, CODE_PREFETCH, 1)
                        )
            # C tile store.
            for col in range(nr):
                c_col = c_base + (j * nr + col) * mc * elem + i * mr * elem
                for off in range(0, mr * elem, QWORD):
                    rows.append((c_col + off, 1, CODE_STORE, 1))
        if prefetch:
            # PLDL2KEEP: pull the next sliver toward the L2.
            nxt = b_base + ((j + 1) % nb) * kc * nr * elem
            for off in range(0, kc * nr * elem, line):
                rows.append((((nxt + off) // line) * line, 1, CODE_PREFETCH, 2))

    return (
        BatchTrace.from_rows(warm_rows),
        BatchTrace.from_rows(rows),
        kernel_loads,
    )


def gebp_traces(
    spec: KernelSpec,
    blocking: CacheBlocking,
    chip: ChipParams = XGENE,
    core: int = 0,
    nc_slice: Optional[int] = None,
    prefetch: bool = True,
    prefetch_drop: float = 0.35,
    hw_late: float = 0.25,
    prefa_bytes: int = 1024,
) -> Tuple[BatchTrace, BatchTrace, int]:
    """The ``(warm, main, kernel_loads)`` streams one GEBP replay issues.

    Relocated to ``core``'s private address region; the underlying
    base-0 compilation is shared across cores and sweep points.
    """
    nc = nc_slice if nc_slice is not None else min(blocking.nc, 6 * spec.nr)
    warm, main, kernel_loads = _gebp_trace(
        spec.mr,
        spec.nr,
        blocking.kc,
        blocking.mc,
        nc,
        chip.l1d.line_bytes,
        bool(prefetch),
        float(prefetch_drop),
        float(hw_late),
        int(prefa_bytes),
    )
    offset = core * (1 << 30)
    return warm.shifted(offset), main.shifted(offset), kernel_loads


def simulate_gebp_cache(
    spec: KernelSpec,
    blocking: CacheBlocking,
    chip: ChipParams = XGENE,
    core: int = 0,
    hierarchy: Optional[MemoryHierarchy] = None,
    nc_slice: Optional[int] = None,
    prefetch: bool = True,
    prefetch_drop: float = 0.35,
    hw_late: float = 0.25,
    prefa_bytes: int = 1024,
    engine: str = "auto",
    seed: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    incremental: bool = True,
) -> GebpCacheResult:
    """Replay one GEBP's access stream through the cache hierarchy.

    Args:
        spec: Register kernel shape.
        blocking: Block sizes (mc, kc used in full; nc possibly sliced).
        chip: Architecture.
        core: Executing core id.
        hierarchy: Shared hierarchy for multi-thread experiments; a fresh
            private one is created when omitted.
        nc_slice: Columns of the B panel to replay (default
            ``min(nc, 6*nr)`` — steady state is reached within a sliver).
        prefetch: Software prefetching enabled.
        prefetch_drop: Fraction of software prefetches dropped.
        hw_late: Fraction of hardware sequential prefetches that arrive
            too late to cover the demand access.
        prefa_bytes: A-stream prefetch distance.
        engine: ``"auto"``/``"batched"`` for the vectorized sweep,
            ``"scalar"`` for the per-access oracle. Both produce
            bit-identical counters.
        seed: RANDOM-replacement seed for a freshly created hierarchy
            (ignored when ``hierarchy`` is passed in).
        metrics: Optional registry receiving replay counters and span
            timings; ``None`` (the default) costs nothing.
        incremental: Reuse the post-warm-up hierarchy state across calls
            that share a warm stream (same kernel shape, ``kc``/``mc``,
            chip, seed, core and engine): an exact match restores a
            snapshot instead of re-replaying the warm-up; a call whose
            warm trace extends a cached one (larger ``nc``) restores and
            replays only the delta rows. Bit-identical to a cold start
            by construction (the ``sweep.incremental`` oracle pins it);
            only applies when ``hierarchy`` is omitted.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    h = hierarchy or MemoryHierarchy(chip, seed=seed)
    warm, main, kernel_loads = gebp_traces(
        spec,
        blocking,
        chip=chip,
        core=core,
        nc_slice=nc_slice,
        prefetch=prefetch,
        prefetch_drop=prefetch_drop,
        hw_late=hw_late,
        prefa_bytes=prefa_bytes,
    )

    selected = "scalar" if engine == "scalar" else "batched"
    if metrics is not None:
        metrics.inc("cachesim.replays")
        metrics.inc(f"cachesim.engine.{selected}")
        metrics.observe("cachesim.trace_records", len(main))
        span = metrics.span("cachesim.replay")
    else:
        span = None

    def _replay(trace: BatchTrace) -> None:
        if selected == "scalar":
            run_trace(h, core, trace)
        else:
            h.run_batch(core, trace)

    # Warm the L2/L3 the way GEBP's preconditions state: the packed A
    # block resides in L2, the packed B panel in L3. Packing itself wrote
    # them, which is what installs them. With ``incremental``, the
    # post-warm-up state is snapshotted and carried to the next sweep
    # point sharing the stream: warm rows are A stores (nc-independent)
    # followed by B stores (growing with nc), so adjacent points' warm
    # traces are literal prefixes of each other and a restore plus a
    # delta replay reproduces the cold-start state bit-exactly.
    memo_key = None
    if incremental and hierarchy is None:
        memo_key = (
            chip,
            seed,
            core,
            selected,
            spec.mr,
            spec.nr,
            blocking.kc,
            blocking.mc,
            chip.l1d.line_bytes,
        )
    cached = _WARM_MEMO.get(memo_key) if memo_key is not None else None
    n_warm = len(warm)
    if cached is not None and cached[0] <= n_warm:
        cached_rows, snap = cached
        h.restore(snap)  # snapshot taken post-reset: stats are zero
        if cached_rows < n_warm:
            _replay(BatchTrace(warm.records[cached_rows:]))
            h.reset_stats()
        if metrics is not None:
            metrics.inc("cachesim.warm_restores")
    else:
        _replay(warm)
        h.reset_stats()
    if memo_key is not None and (cached is None or cached[0] != n_warm):
        evicted = _WARM_MEMO.put(memo_key, (n_warm, h.snapshot()))
        if metrics is not None and evicted:
            metrics.inc("cachesim.warm_evictions", evicted)

    if span is not None:
        with span:
            _replay(main)
    else:
        _replay(main)

    l1 = h.l1_stats(core)
    l2 = h.l2_stats(h.module_of(core))
    return GebpCacheResult(
        l1_loads=l1.loads,
        l1_load_misses=l1.load_misses,
        l1_load_miss_rate=l1.load_miss_rate,
        l2_loads=l2.loads,
        l2_load_misses=l2.load_misses,
        dram_accesses=h.dram_accesses,
        kernel_loads=kernel_loads,
    )
