"""The shared workload API — generalized from :mod:`repro.apps.lu`.

The LU application established the repo's workload pattern: execute real
float64 numerics through the library's engines, count the useful flops,
and return both in a small result object. This module extracts that
pattern into an interface any workload family can implement, plus the
two replay entry points every workload gets for free:

- :func:`simulate_workload_cache` — replay the workload's compiled
  :class:`~repro.memory.batch.BatchTrace` streams through
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch` (or the
  scalar :func:`~repro.memory.trace.run_trace` oracle) and report the
  Table VII-style load/miss counters;
- :func:`timed_workload` — feed the same stream's per-load latencies
  (from :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch_levels`)
  into the compiled scoreboard engine
  (:meth:`~repro.pipeline.scoreboard.ScoreboardCore.run_compiled`) and
  report cycles/Gflops, with the instruction-by-instruction interpreter
  kept as the bit-identical differential oracle.

A workload only has to describe itself (:class:`Workload`): its numerics
(:meth:`Workload.run`), its access stream (:meth:`Workload.traces`), and
its ISA loop bodies (:meth:`Workload.kernel_segments`). The stream and
the bodies are generated by the same loop structure, so the dynamic LDR
count of the segments always matches the demand-load count of the main
trace — :func:`timed_workload` enforces that invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.blocking.cache_blocking import CacheBlocking
from repro.engines import CACHE_ENGINES, TIMED_ENGINES
from repro.errors import SimulationError
from repro.gemm.driver import dgemm
from repro.gemm.trace import GemmTrace
from repro.isa.instructions import Instruction
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.trace import run_trace
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.scoreboard import (
    PipelineResult,
    ScoreboardCore,
    ScoreboardTemplate,
)

__all__ = [
    "CACHE_ENGINES",
    "TIMED_ENGINES",
    "Workload",
    "WorkloadCacheResult",
    "WorkloadResult",
    "WorkloadTimedResult",
    "traced_dgemm",
    "simulate_workload_cache",
    "timed_workload",
]


@dataclass
class WorkloadResult:
    """Outcome of one workload execution.

    The generalization of :class:`~repro.apps.lu.LuResult`: the computed
    output plus the useful flops the execution performed.
    """

    output: "np.ndarray"
    flops: int


def traced_dgemm(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    alpha: float = 1.0,
    beta: float = 1.0,
    blocking: Optional[CacheBlocking] = None,
) -> Tuple["np.ndarray", int]:
    """Run one blocked DGEMM and count its useful flops.

    The flop-accounting idiom shared by every workload that lowers onto
    :func:`repro.gemm.driver.dgemm` (LU's trailing update, im2col
    convolution): attach a :class:`~repro.gemm.trace.GemmTrace`, execute,
    and read the ``2*m*k*n`` total off the recorded GEBP events.

    Returns ``(updated_c, flops)``.
    """
    trace = GemmTrace()
    out = dgemm(a, b, c, alpha=alpha, beta=beta, blocking=blocking,
                trace=trace)
    return out, trace.flops


class Workload:
    """Interface every workload family implements.

    A workload is a deterministic computation with three faces:

    - **numerics**: :meth:`run` executes the real float64 computation
      and returns a :class:`WorkloadResult`;
    - **address stream**: :meth:`traces` compiles the warm-up and
      main-loop access streams as :class:`BatchTrace` objects (base
      relocated per core, like :func:`~repro.sim.gebp_cachesim.gebp_traces`);
    - **ISA program**: :meth:`kernel_segments` emits the loop bodies as
      ``(instructions, repeat)`` segments whose dynamic LDR sequence
      matches the main trace's demand loads one-to-one.
    """

    #: Short machine-readable family name ("stencil", "conv", ...).
    name: str = "workload"

    def run(self) -> WorkloadResult:
        raise NotImplementedError

    @property
    def flops(self) -> int:
        """Useful flops of one execution (no numerics performed)."""
        raise NotImplementedError

    def traces(self, chip: ChipParams, core: int = 0) -> Tuple[BatchTrace, BatchTrace]:
        """The ``(warm, main)`` access streams, relocated to ``core``."""
        raise NotImplementedError

    def kernel_segments(
        self, chip: ChipParams
    ) -> List[Tuple[List[Instruction], int]]:
        """The timed-kernel program as ``(instructions, repeat)`` segments."""
        raise NotImplementedError


@dataclass(frozen=True)
class WorkloadCacheResult:
    """Cache behaviour of one workload replay (Table VII-style counters).

    Attributes:
        l1_loads: Demand loads seen by the executing core's L1.
        l1_load_misses: Demand load misses.
        l1_load_miss_rate: The headline miss-rate metric.
        l2_loads, l2_load_misses: Same, one level down.
        dram_accesses: Lines fetched from memory.
        trace_records: Records in the replayed main stream.
    """

    l1_loads: int
    l1_load_misses: int
    l1_load_miss_rate: float
    l2_loads: int
    l2_load_misses: int
    dram_accesses: int
    trace_records: int


@dataclass(frozen=True)
class WorkloadTimedResult:
    """Timed execution of one workload through the scoreboard engine.

    Attributes:
        cycles: Modeled cycles of the main loop.
        seconds: Cycles over the core clock.
        gflops: Useful workload flops over the modeled time.
        efficiency: ``gflops`` against the single-core peak.
        engine: Engine that actually ran ("compiled"/"interpreted").
        pipeline: The scoreboard's stall breakdown.
    """

    cycles: int
    seconds: float
    gflops: float
    efficiency: float
    engine: str
    pipeline: PipelineResult


def _replay(
    h: MemoryHierarchy, core: int, trace: BatchTrace, selected: str
) -> None:
    if selected == "scalar":
        run_trace(h, core, trace)
    else:
        h.run_batch(core, trace)


def simulate_workload_cache(
    workload: Workload,
    chip: ChipParams,
    core: int = 0,
    hierarchy: Optional[MemoryHierarchy] = None,
    engine: str = "auto",
    seed: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> WorkloadCacheResult:
    """Replay a workload's access stream through the cache hierarchy.

    The same warm-then-measure protocol as
    :func:`~repro.sim.gebp_cachesim.simulate_gebp_cache`: the warm-up
    stream installs the workload's initial state (its inputs were just
    written), statistics reset, and the main stream replays through the
    selected engine.

    Args:
        workload: The workload to replay.
        chip: Architecture.
        core: Executing core id.
        hierarchy: Shared hierarchy for multi-workload experiments; a
            fresh private one is created when omitted.
        engine: ``"auto"``/``"batched"`` for the vectorized sweep,
            ``"scalar"`` for the per-access oracle (bit-identical).
        seed: RANDOM-replacement seed for a freshly created hierarchy.
        metrics: Optional registry receiving replay counters.
    """
    if engine not in CACHE_ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {CACHE_ENGINES}"
        )
    h = hierarchy or MemoryHierarchy(chip, seed=seed)
    warm, main = workload.traces(chip, core=core)
    selected = "scalar" if engine == "scalar" else "batched"
    if metrics is not None:
        metrics.inc("workloads.replays")
        metrics.inc(f"workloads.engine.{selected}")
        metrics.observe("workloads.trace_records", len(main))
        span = metrics.span("workloads.replay")
    else:
        span = None

    _replay(h, core, warm, selected)
    h.reset_stats()
    if span is not None:
        with span:
            _replay(h, core, main, selected)
    else:
        _replay(h, core, main, selected)

    l1 = h.l1_stats(core)
    l2 = h.l2_stats(h.module_of(core))
    return WorkloadCacheResult(
        l1_loads=l1.loads,
        l1_load_misses=l1.load_misses,
        l1_load_miss_rate=l1.load_miss_rate,
        l2_loads=l2.loads,
        l2_load_misses=l2.load_misses,
        dram_accesses=h.dram_accesses,
        trace_records=len(main),
    )


def _load_latencies(
    h: MemoryHierarchy, core: int, main: BatchTrace
) -> np.ndarray:
    """Per-dynamic-LDR latencies of the main stream, in program order."""
    _, latencies = h.run_batch_levels(core, main)
    _, kinds, _ = main.expand_lines(h.dram_line_bytes)
    demand_kinds = kinds[kinds != CODE_PREFETCH]
    return latencies[demand_kinds == CODE_LOAD]


def timed_workload(
    workload: Workload,
    chip: ChipParams,
    core: int = 0,
    engine: str = "auto",
    seed: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> WorkloadTimedResult:
    """Time a workload's kernel through the scoreboard engine.

    The warm-up stream installs initial cache state, then the main
    stream replays once through
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch_levels` to
    price every demand load; those latencies drive the workload's ISA
    segments through :meth:`ScoreboardCore.run_compiled` (PR 3's engine,
    unchanged) or the interpreter.

    Args:
        workload: The workload to time.
        chip: Architecture.
        core: Executing core id.
        engine: ``"auto"``/``"compiled"`` for the template engine,
            ``"interpreted"`` for the per-instruction oracle — the two
            are bit-identical by ``run_compiled``'s contract.
        seed: RANDOM-replacement seed for the hierarchy.
        metrics: Optional registry receiving timing counters.
    """
    if engine not in TIMED_ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {TIMED_ENGINES}"
        )
    selected = "interpreted" if engine == "interpreted" else "compiled"
    h = MemoryHierarchy(chip, seed=seed)
    warm, main = workload.traces(chip, core=core)
    h.run_batch(core, warm)
    h.reset_stats()
    lats = _load_latencies(h, core, main)

    segments = workload.kernel_segments(chip)
    n_ldrs = sum(
        sum(1 for i in body if i.is_load) * repeat
        for body, repeat in segments
    )
    if n_ldrs != lats.size:
        raise SimulationError(
            f"workload {workload.name!r} is misaligned: kernel segments "
            f"issue {n_ldrs} loads, the main trace has {lats.size}"
        )

    sb = ScoreboardCore(chip.core)
    if metrics is not None:
        metrics.inc("workloads.timed_runs")
        metrics.inc(f"workloads.timed.{selected}")
        span = metrics.span("workloads.timed")
    else:
        span = None

    def execute() -> PipelineResult:
        if selected == "compiled":
            # Workloads reuse body lists across segments (every register
            # tile, every pack step); one template per distinct body
            # keeps run_compiled's per-template memo effective.
            tmpl_cache: Dict[int, ScoreboardTemplate] = {}
            compiled: List[Tuple[ScoreboardTemplate, int]] = []
            for body, repeat in segments:
                tmpl = tmpl_cache.get(id(body))
                if tmpl is None:
                    tmpl = ScoreboardTemplate(body)
                    tmpl_cache[id(body)] = tmpl
                compiled.append((tmpl, repeat))
            return sb.run_compiled(compiled, [int(x) for x in lats], memo={})
        flat: List[Instruction] = []
        for body, repeat in segments:
            flat.extend(list(body) * repeat)
        lat_by_dyn: Dict[int, int] = {}
        cursor = 0
        for idx, instr in enumerate(flat):
            if instr.is_load:
                lat_by_dyn[idx] = int(lats[cursor])
                cursor += 1
        return sb.run(
            flat,
            repeat=1,
            latency_fn=lambda instr, i: lat_by_dyn.get(i, 0),
        )

    if span is not None:
        with span:
            pipeline = execute()
    else:
        pipeline = execute()

    seconds = pipeline.cycles / chip.core.frequency_hz
    flops = workload.flops
    gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
    peak = chip.core.peak_flops / 1e9
    return WorkloadTimedResult(
        cycles=pipeline.cycles,
        seconds=seconds,
        gflops=gflops,
        efficiency=gflops / peak if peak else 0.0,
        engine=selected,
        pipeline=pipeline,
    )
