"""The one cache-replay driver (internal; not exported by :mod:`repro.memory`).

:func:`~repro.sim.gebp_cachesim.simulate_gebp_cache` and
:func:`~repro.workloads.base.simulate_workload_cache` compile their
``(warm, main)`` streams and call :func:`replay_cache`. It sits below
both, so neither simulator package imports the other.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Tuple

from repro.arch.params import ChipParams
from repro.engines import cache_engine
from repro.memory.batch import BatchTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.trace import run_trace
from repro.memory.warm_memo import WarmMemo

if TYPE_CHECKING:  # pragma: no cover - keeps the memory layer obs-free
    from repro.obs.metrics import MetricsRegistry

#: Warm-state snapshots carried across calls that share a warm stream
#: (see ``simulate_gebp_cache(incremental=...)``). Keyed by everything
#: that determines the warm-up stream and the hierarchy it replays into;
#: entries hold ``(warm_rows_replayed, snapshot)``, so a call whose warm
#: trace extends a cached one replays only the delta rows.
_WARM_MEMO = WarmMemo(32)


def clear_warm_memo() -> None:
    """Drop all carried warm-state snapshots (test-isolation hook)."""
    _WARM_MEMO.clear()


def replay_cache(
    hierarchy: Optional[MemoryHierarchy],
    chip: ChipParams,
    core: int,
    traces: Tuple[BatchTrace, BatchTrace],
    engine: str,
    seed: Optional[int],
    metrics: Optional[MetricsRegistry],
    warm_key: Optional[tuple] = None,
) -> Tuple[int, int, float, int, int, int]:
    """The Table VII protocol (eq. 15): warm, reset the stats, count main.

    The warm trace installs the state the measured loop starts from (for
    GEBP, packing wrote the A block into the L2 and the B panel into the
    L3). ``engine`` goes through :func:`~repro.engines.cache_engine`;
    ``scalar`` replays per access via :func:`~repro.memory.trace.run_trace`,
    the bit-identical oracle of ``run_batch``. With a ``warm_key`` and no
    caller-owned ``hierarchy``, the post-warm state is carried in
    :data:`_WARM_MEMO` under ``(chip, seed, core, engine) + warm_key``;
    a cached warm trace that is a prefix of this one is restored and
    extended by the delta rows, so every warm trace under one key must
    extend the shorter ones (``sweep.incremental`` pins it for GEBP).

    Returns ``(l1_loads, l1_load_misses, l1_load_miss_rate, l2_loads,
    l2_load_misses, dram_accesses)`` of the main replay.
    """
    selected = cache_engine(engine)
    h = hierarchy or MemoryHierarchy(chip, seed=seed)
    warm, main = traces
    span = nullcontext()
    if metrics is not None:
        metrics.inc("cachesim.replays")
        metrics.inc(f"cachesim.engine.{selected}")
        metrics.observe("cachesim.trace_records", len(main))
        span = metrics.span("cachesim.replay")

    def replay(trace: BatchTrace) -> None:
        if selected == "scalar":
            run_trace(h, core, trace)
        else:
            h.run_batch(core, trace)

    memo_key = None
    if warm_key is not None and hierarchy is None:
        memo_key = (chip, seed, core, selected) + warm_key
    cached = _WARM_MEMO.get(memo_key) if memo_key is not None else None
    n_warm = len(warm)
    if cached is not None and cached[0] <= n_warm:
        cached_rows, snap = cached
        h.restore(snap)  # snapshot taken post-reset: stats are zero
        if cached_rows < n_warm:
            replay(BatchTrace(warm.records[cached_rows:]))
            h.reset_stats()
        if metrics is not None:
            metrics.inc("cachesim.warm_restores")
    else:
        replay(warm)
        h.reset_stats()
    if memo_key is not None and (cached is None or cached[0] != n_warm):
        evicted = _WARM_MEMO.put(memo_key, (n_warm, h.snapshot()))
        if metrics is not None and evicted:
            metrics.inc("cachesim.warm_evictions", evicted)

    with span:
        replay(main)

    l1 = h.l1_stats(core)
    l2 = h.l2_stats(h.module_of(core))
    return (l1.loads, l1.load_misses, l1.load_miss_rate,
            l2.loads, l2.load_misses, h.dram_accesses)
