"""Timing-functional simulation of generated kernels.

Runs a generated register kernel the way silicon would: every dynamic
instruction is executed *functionally* (producing the numeric result) and
*timed* against the machine — loads walk the cache hierarchy at their
actual addresses (software prefetches install lines; the hardware
sequential prefetcher observes the streams), and the resulting per-load
latencies feed the scoreboard's dependence-and-issue model.

This is the most detailed level of the simulator stack:

- the cost model (:mod:`repro.sim.gemm_sim`) prices structure analytically;
- the cache replay (:mod:`repro.sim.gebp_cachesim`) is event-accurate in
  addresses but not in time;
- this module is event-accurate in both values and time, at micro-tile
  scale — and is what validates the other two
  (``tests/test_timed_executor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.engines import TIMED_ENGINES
from repro.errors import SimulationError
from repro.isa.executor import Executor, MachineState, Memory
from repro.isa.instructions import Instruction, Ldr, Prfm
from repro.isa.registers import DOUBLE_BYTES
from repro.kernels.codegen import (
    A_POINTER,
    B_POINTER,
    C_POINTER,
    GeneratedKernel,
)
from repro.kernels.compiled import (
    CompiledKernel,
    compilability,
    compile_kernel,
)
from repro.kernels.execute import (
    A_BASE,
    B_BASE,
    C_BASE,
    _body_load_targets,
    padded_stream_widths,
)
from repro.kernels.kernel_spec import KernelStyle
from repro.memory.batch import warm_region
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import SequentialPrefetcher
from repro.memory.warm_memo import WarmMemo
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.scoreboard import PipelineResult, ScoreboardCore


def _stream_widths(kernel) -> Tuple[int, int]:
    """Doubles per k-iteration of the packed A/B streams in the timed
    address space: dense for k-vectorized packing, lane-padded for the
    by-element layout (see :func:`padded_stream_widths`)."""
    spec = kernel.spec
    if spec.style is KernelStyle.K_VECTORIZED:
        return spec.mr, spec.nr
    return padded_stream_widths(spec)


def fallback_reason_slug(reason: str) -> str:
    """Metric-label slug of a :func:`compilability` reason: the part
    before the first colon, lowercased and hyphenated."""
    head = reason.split(":", 1)[0].strip().lower()
    return "-".join(head.split())


def engine_selection(
    kernel: GeneratedKernel, engine: str
) -> Tuple[str, Optional[str]]:
    """What ``engine`` resolves to for ``kernel``, without compiling.

    Returns ``(selected, fallback_reason)``: the engine that will actually
    run (``"compiled"`` or ``"interpreted"``) and, when ``engine="auto"``
    fell back to the interpreter, the :func:`compilability` reason —
    ``None`` otherwise. ``engine="compiled"`` on a non-compilable kernel
    raises, exactly like the run entry points.
    """
    if engine not in TIMED_ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {TIMED_ENGINES}"
        )
    if engine == "interpreted":
        return "interpreted", None
    reason = compilability(kernel)
    if reason is None:
        return "compiled", None
    if engine == "compiled":
        raise SimulationError(f"kernel does not compile: {reason}")
    return "interpreted", reason


def _resolve_engine(
    kernel: GeneratedKernel, engine: str
) -> Tuple[Optional[CompiledKernel], str, Optional[str]]:
    """The compiled kernel to use (``None`` for the interpreted path),
    plus the selection and fallback reason from :func:`engine_selection`."""
    selected, reason = engine_selection(kernel, engine)
    if selected == "compiled":
        return compile_kernel(kernel), selected, None
    return None, selected, reason


@dataclass
class TimedRun:
    """Result of a timing-functional micro-tile run.

    Attributes:
        c_tile: The computed ``mr x nr`` C tile.
        cycles: Scoreboard cycles for the whole run (prologue + bodies +
            epilogue).
        cycles_per_iteration: Steady-state cycles per k-iteration.
        efficiency: Fraction of the core's FMA peak achieved.
        pipeline: Full scoreboard result.
        load_latencies: Latency histogram of the kernel's demand loads
            (cycles -> count).
        engine: The engine that actually ran (``"compiled"`` or
            ``"interpreted"`` — never ``"auto"``).
        fallback_reason: When ``engine="auto"`` was requested but the
            kernel is not compilable, the :func:`~repro.kernels.compiled.
            compilability` reason the interpreter was chosen for;
            ``None`` otherwise.
        batched_fallback_accesses: Cache accesses the compiled engine's
            batched hierarchy replay had to serve through the per-access
            scalar path (non-LRU replacement policies); 0 on the
            interpreted engine and on fully batched replays.
    """

    c_tile: "np.ndarray"
    cycles: int
    cycles_per_iteration: float
    efficiency: float
    pipeline: PipelineResult
    load_latencies: Dict[int, int]
    engine: str = "interpreted"
    fallback_reason: Optional[str] = None
    batched_fallback_accesses: int = 0


def run_timed_micro_tile(
    kernel: GeneratedKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"] = None,
    chip: ChipParams = XGENE,
    hierarchy: Optional[MemoryHierarchy] = None,
    core_id: int = 0,
    hw_late: float = 0.25,
    warm_l2: bool = True,
    timing_bases: Optional[Dict[int, int]] = None,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> TimedRun:
    """Execute and time one micro-tile (GESS) on the simulated machine.

    Args:
        kernel: Generated even-tile kernel.
        a_sliver: Packed A sliver ``(kc, mr)``.
        b_sliver: Packed B sliver ``(kc, nr)``.
        c_tile: Initial C tile.
        chip: Architecture.
        hierarchy: Shared hierarchy (fresh private one when omitted).
        core_id: Executing core.
        hw_late: Hardware-prefetcher lateness.
        warm_l2: Pre-install the packed buffers in L2/L3 (GEBP's
            precondition: packing already wrote them there).
        timing_bases: Optional map from pointer-register index to the
            byte address the stream occupies *in the timed address
            space* — lets a caller (e.g. :func:`run_timed_gebp`) place
            many slivers at their true offsets inside shared packed
            buffers while each tile's functional memory stays local.
        engine: One of :data:`TIMED_ENGINES`. The compiled engine
            replays precompiled value/address/issue templates and is
            bit-identical to the interpreter on the C tile, the pipeline
            counters and the load-latency histogram.
        metrics: Optional registry to record engine selection, cycle and
            load counters into. ``None`` (the default) costs nothing.
    """
    spec = kernel.spec
    mr, nr = spec.mr, spec.nr
    kc = a_sliver.shape[0]
    unroll = kernel.plan.unroll
    if kc % unroll:
        raise SimulationError(f"kc={kc} must be a multiple of {unroll}")
    compiled, selected, fallback_reason = _resolve_engine(kernel, engine)
    if metrics is not None:
        metrics.inc("timed.micro_tiles")
        metrics.inc(f"timed.engine.{selected}")
        if fallback_reason is not None:
            metrics.inc("timed.auto_fallbacks")
            metrics.inc(
                "timed.auto_fallbacks."
                + fallback_reason_slug(fallback_reason)
            )

    # ---- timing state -----------------------------------------------------
    h = hierarchy or MemoryHierarchy(chip)
    line = chip.l1d.line_bytes
    wa, wb = _stream_widths(kernel)
    if warm_l2:
        _warm_micro_tile_l2(
            h, core_id, chip, kc, unroll, wa, wb, line,
            memoizable=hierarchy is None,
        )

    if compiled is not None:
        run = _run_compiled_micro_tile(
            compiled, a_sliver, b_sliver, c_tile, chip, h, core_id,
            hw_late, timing_bases,
        )
        if metrics is not None:
            metrics.inc("timed.cycles", run.cycles)
            metrics.inc("timed.demand_loads", sum(run.load_latencies.values()))
        return run

    if spec.style is KernelStyle.K_VECTORIZED:
        return _run_interpreted_kvec(
            kernel, a_sliver, b_sliver, c_tile, chip, h, core_id,
            hw_late, timing_bases, fallback_reason, metrics,
        )

    # ---- functional state (same layout as kernels.execute) ---------------
    memory = Memory()
    a_padded = np.zeros((kc + unroll, wa))
    a_padded[:kc, :mr] = a_sliver
    b_padded = np.zeros((kc + unroll, wb))
    b_padded[:kc, :nr] = b_sliver
    memory.map_region(A_BASE, a_padded)
    memory.map_region(B_BASE, b_padded)
    c0 = np.zeros((mr, nr)) if c_tile is None else np.asarray(c_tile, float)
    c_padded = np.zeros((wa, nr))
    c_padded[:mr, :] = c0
    memory.map_region(C_BASE, c_padded.T.copy())

    state = MachineState()
    executor = Executor(state, memory)

    prefetcher = SequentialPrefetcher(h, core_id, late_rate=hw_late)

    # ---- build the dynamic stream, executing functionally and recording
    # each load's latency from the hierarchy --------------------------------
    stream: List[Instruction] = []
    latencies: List[int] = []
    histogram: Dict[int, int] = {}
    functional_bases = {
        A_POINTER.index: A_BASE,
        B_POINTER.index: B_BASE,
        C_POINTER.index: C_BASE,
    }

    def timed_address(base_reg_index: int, addr: int) -> int:
        if timing_bases is None or base_reg_index not in timing_bases:
            return addr
        return timing_bases[base_reg_index] + (
            addr - functional_bases[base_reg_index]
        )

    def step(instr: Instruction) -> None:
        lat = 0
        if isinstance(instr, Ldr):
            addr = timed_address(
                instr.base.index, state.pointer(instr.base)
            )
            res = h.access_line(core_id, addr // chip.l1d.line_bytes)
            lat = res.latency_cycles
            tag = instr.tag or ""
            if tag in ("A", "B"):
                prefetcher.observe(addr // chip.l1d.line_bytes, tag)
            histogram[lat] = histogram.get(lat, 0) + 1
        elif isinstance(instr, Prfm):
            addr = timed_address(
                instr.base.index, state.pointer(instr.base) + instr.offset
            )
            h.prefetch_line(
                core_id, addr // chip.l1d.line_bytes, instr.target.level
            )
        executor.execute(instr)
        stream.append(instr)
        latencies.append(lat)

    # Prologue: C tile loads.
    state.set_pointer(C_POINTER, C_BASE)
    for instr in kernel.prologue:
        step(instr)

    # Preload + stream pointers (same rules as functional execution).
    targets, preload = _body_load_targets(kernel)
    plan = kernel.plan
    for slot in preload:
        reg = plan.register_for(slot, 0)
        idx = int(slot[1:])
        src = a_padded if slot[0] == "A" else b_padded
        state.vregs[reg][:] = src[0, 2 * idx : 2 * idx + 2]
    first = {"A": None, "B": None}
    for _i, slot, k_off in targets:
        s = slot[0]
        if first[s] is None:
            width = wa if s == "A" else wb
            base = A_BASE if s == "A" else B_BASE
            first[s] = base + (k_off * width + 2 * int(slot[1:])) * DOUBLE_BYTES
    if first["A"] is not None:
        state.set_pointer(A_POINTER, first["A"])
    if first["B"] is not None:
        state.set_pointer(B_POINTER, first["B"])

    for _body in range(kc // unroll):
        for instr in kernel.body:
            step(instr)

    state.set_pointer(C_POINTER, C_BASE)
    for instr in kernel.epilogue:
        step(instr)

    # ---- time the recorded stream on the scoreboard -----------------------
    core = ScoreboardCore(chip.core)
    result = core.run(
        stream, latency_fn=lambda _instr, i: latencies[i]
    )

    flops = kc * spec.flops_per_iter
    peak = chip.core.flops_per_cycle
    if metrics is not None:
        metrics.inc("timed.cycles", result.cycles)
        metrics.inc("timed.demand_loads", sum(histogram.values()))
    return TimedRun(
        c_tile=memory.region_at(C_BASE).reshape(nr, wa).T[:mr, :].copy(),
        cycles=result.cycles,
        cycles_per_iteration=result.cycles / kc,
        efficiency=(flops / result.cycles) / peak,
        pipeline=result,
        load_latencies=histogram,
        engine="interpreted",
        fallback_reason=fallback_reason,
    )


#: Warm-state snapshots for the micro-tile precondition (packed A/B in
#: the module L2), keyed by everything the warm stream depends on. Only
#: consulted for freshly created hierarchies, whose pre-warm state is
#: pristine by construction — restoring the snapshot is then bit-identical
#: to replaying the warm stream into the fresh hierarchy.
_WARM_MEMO = WarmMemo(16)


def _warm_micro_tile_l2(
    h: MemoryHierarchy,
    core_id: int,
    chip: ChipParams,
    kc: int,
    unroll: int,
    wa: int,
    wb: int,
    line: int,
    memoizable: bool,
) -> None:
    """Establish GEBP's precondition (packed buffers L2-resident) and
    zero the stats, restoring a memoized snapshot when possible."""
    key = (chip, core_id, kc, unroll, wa, wb, line)
    if memoizable:
        snap = _WARM_MEMO.get(key)
        if snap is not None:
            h.restore(snap)
            return
    module_l2 = h.l2[h.module_of(core_id)]
    warm_region(module_l2, A_BASE, (kc + unroll) * wa * DOUBLE_BYTES, line)
    warm_region(module_l2, B_BASE, (kc + unroll) * wb * DOUBLE_BYTES, line)
    h.reset_stats()
    if memoizable:
        _WARM_MEMO.put(key, h.snapshot())


def _run_interpreted_kvec(
    kernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"],
    chip: ChipParams,
    h: MemoryHierarchy,
    core_id: int,
    hw_late: float,
    timing_bases: Optional[Dict[int, int]],
    fallback_reason: Optional[str],
    metrics: Optional[MetricsRegistry],
) -> TimedRun:
    """The interpreted path for k-vectorized kernels.

    Mirrors :func:`repro.kernels.atlas.execute_atlas_micro_tile` but in
    the timed address space: the preamble's A/B loads are timed and
    observed by the hardware prefetcher exactly like body loads, the
    epilogue's ``faddp``/``str`` pairs go through the scoreboard, and C
    is a store-only stream (the tile starts at zero in registers and the
    initial C is added after readback — ATLAS's beta handling).
    """
    spec = kernel.spec
    mr, nr = spec.mr, spec.nr
    kc = a_sliver.shape[0]
    unroll = kernel.plan.unroll
    groups = kc // unroll
    c_rows = 2 * spec.a_regs_per_copy

    ga = a_sliver.reshape(groups, unroll, mr).transpose(0, 2, 1)
    gb = b_sliver.reshape(groups, unroll, nr).transpose(0, 2, 1)

    memory = Memory()
    # One padding group of zeros: the last body pass preloads past the end.
    memory.map_region(
        A_BASE, np.vstack([ga.reshape(-1, 2), np.zeros((mr, 2))])
    )
    memory.map_region(
        B_BASE, np.vstack([gb.reshape(-1, 2), np.zeros((nr, 2))])
    )
    c0 = np.zeros((mr, nr)) if c_tile is None else np.asarray(c_tile, float)
    memory.map_region(C_BASE, np.zeros((c_rows, nr)).T.copy())

    state = MachineState()
    executor = Executor(state, memory)
    prefetcher = SequentialPrefetcher(h, core_id, late_rate=hw_late)

    stream: List[Instruction] = []
    latencies: List[int] = []
    histogram: Dict[int, int] = {}
    functional_bases = {
        A_POINTER.index: A_BASE,
        B_POINTER.index: B_BASE,
        C_POINTER.index: C_BASE,
    }

    def timed_address(base_reg_index: int, addr: int) -> int:
        if timing_bases is None or base_reg_index not in timing_bases:
            return addr
        return timing_bases[base_reg_index] + (
            addr - functional_bases[base_reg_index]
        )

    def step(instr: Instruction) -> None:
        lat = 0
        if isinstance(instr, Ldr):
            addr = timed_address(
                instr.base.index, state.pointer(instr.base)
            )
            res = h.access_line(core_id, addr // chip.l1d.line_bytes)
            lat = res.latency_cycles
            tag = instr.tag or ""
            if tag in ("A", "B"):
                prefetcher.observe(addr // chip.l1d.line_bytes, tag)
            histogram[lat] = histogram.get(lat, 0) + 1
        elif isinstance(instr, Prfm):
            addr = timed_address(
                instr.base.index, state.pointer(instr.base) + instr.offset
            )
            h.prefetch_line(
                core_id, addr // chip.l1d.line_bytes, instr.target.level
            )
        executor.execute(instr)
        stream.append(instr)
        latencies.append(lat)

    state.set_pointer(A_POINTER, A_BASE)
    state.set_pointer(B_POINTER, B_BASE)
    for instr in kernel.prologue:
        step(instr)
    for _g in range(groups):
        for instr in kernel.body:
            step(instr)
    # The scratch register must be zero for the last row-pair's faddp.
    state.vregs[0][:] = 0.0
    state.set_pointer(C_POINTER, C_BASE)
    for instr in kernel.epilogue:
        step(instr)

    core = ScoreboardCore(chip.core)
    result = core.run(stream, latency_fn=lambda _instr, i: latencies[i])

    flops = kc * spec.flops_per_iter
    peak = chip.core.flops_per_cycle
    if metrics is not None:
        metrics.inc("timed.cycles", result.cycles)
        metrics.inc("timed.demand_loads", sum(histogram.values()))
    stored = memory.region_at(C_BASE).reshape(nr, c_rows).T
    return TimedRun(
        c_tile=c0 + stored[:mr, :],
        cycles=result.cycles,
        cycles_per_iteration=result.cycles / kc,
        efficiency=(flops / result.cycles) / peak,
        pipeline=result,
        load_latencies=histogram,
        engine="interpreted",
        fallback_reason=fallback_reason,
    )


def _run_compiled_micro_tile(
    compiled: CompiledKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"],
    chip: ChipParams,
    h: MemoryHierarchy,
    core_id: int,
    hw_late: float,
    timing_bases: Optional[Dict[int, int]],
) -> TimedRun:
    """The compiled replay of one micro-tile (see ``engine="compiled"``).

    Values, addresses and issue timing all come from per-kernel templates:
    the C tile from the ordered accumulation, the load latencies from one
    batched hierarchy replay of the relocated tile trace, the pipeline
    counters from the template scoreboard. Bit-identical to the
    interpreted path by construction (and by differential test).
    """
    kernel = compiled.kernel
    spec = kernel.spec
    kc = a_sliver.shape[0]
    n_bodies = kc // kernel.plan.unroll
    line = chip.l1d.line_bytes

    bases = timing_bases or {}
    trace = compiled.tile_trace(
        n_bodies,
        bases.get(A_POINTER.index, A_BASE),
        bases.get(B_POINTER.index, B_BASE),
        bases.get(C_POINTER.index, C_BASE),
        hw_late,
        line,
    )
    fallback0 = h.batched_fallback_accesses()
    _levels, lat_arr = h.run_batch_levels(core_id, trace)
    fallback = h.batched_fallback_accesses() - fallback0
    latencies = [int(x) for x in lat_arr]
    values, counts = np.unique(lat_arr, return_counts=True)
    histogram = {int(v): int(n) for v, n in zip(values, counts)}

    core = ScoreboardCore(chip.core)
    result = core.run_compiled(
        compiled.segments(n_bodies),
        latencies,
        memo=compiled.memo_for(chip.core),
    )

    flops = kc * spec.flops_per_iter
    peak = chip.core.flops_per_cycle
    return TimedRun(
        c_tile=compiled.compute_tile(a_sliver, b_sliver, c_tile),
        cycles=result.cycles,
        cycles_per_iteration=result.cycles / kc,
        efficiency=(flops / result.cycles) / peak,
        pipeline=result,
        load_latencies=histogram,
        engine="compiled",
        fallback_reason=None,
        batched_fallback_accesses=fallback,
    )


@dataclass
class GebpTimedRun:
    """Result of a timed full-GEBP run.

    Attributes:
        c_panel: The computed ``mc x nc`` C panel.
        cycles: Total cycles across all micro-tiles.
        cycles_per_iteration: Average cycles per k-iteration.
        efficiency: Fraction of the core's FMA peak (padding counted as
            overhead, so ragged panels show their real cost).
        tile_cycles: Per-(i, j) micro-tile cycle counts.
        engine: The engine every micro-tile ran on (``"compiled"`` or
            ``"interpreted"`` — never ``"auto"``).
        fallback_reason: Why ``engine="auto"`` fell back to the
            interpreter, or ``None``.
    """

    c_panel: "np.ndarray"
    cycles: int
    cycles_per_iteration: float
    efficiency: float
    tile_cycles: List[int]
    engine: str = "interpreted"
    fallback_reason: Optional[str] = None


def _run_gebp_lanes(
    kernel: GeneratedKernel,
    lanes: Tuple[Tuple[int, "np.ndarray", int, int, "np.ndarray"], ...],
    packed_b: "np.ndarray",
    chip: ChipParams,
    hierarchy: Optional[MemoryHierarchy],
    hw_late: float,
    engine: str,
    metrics: Optional[MetricsRegistry],
) -> List[GebpTimedRun]:
    """The timed GEBP tile loop behind :func:`run_timed_gebp` and
    :func:`run_timed_gebp_dual`.

    ``lanes`` holds one ``(core_id, packed_a, a_base, c_base, c_panel)``
    per core: its packed A block, where A and the C panel sit in the
    timed address space (they decide cache conflicts, hence cycles), and
    the C panel, updated in place. All lanes share ``packed_b`` at
    ``B_BASE``, one module's L2 and the hierarchy (a fresh one when
    ``None``); at every ``(j, i)`` tile the cores run in lane order,
    which interleaves them tile by tile.
    """
    spec = kernel.spec
    mr, nr = spec.mr, spec.nr
    na, kc, mr_in = lanes[0][1].shape
    nb, kc_b, nr_in = packed_b.shape
    if (mr_in, nr_in) != (mr, nr) or kc != kc_b:
        raise SimulationError("packed buffers do not match the kernel")
    selected, fallback_reason = engine_selection(kernel, engine)
    mc, nc = na * mr, nb * nr
    for lane in lanes:
        if lane[4].shape != (mc, nc):
            raise SimulationError(f"C panel must be {mc}x{nc}")
    h = hierarchy or MemoryHierarchy(chip)
    if len({h.module_of(lane[0]) for lane in lanes}) != 1:
        raise SimulationError("cores must share a module (and its L2)")

    # GEBP's precondition: packing placed A in the L2 and B in the L3.
    line = chip.l1d.line_bytes
    wa, wb = _stream_widths(kernel)
    a_sliver_bytes = kc * wa * DOUBLE_BYTES
    b_sliver_bytes = kc * wb * DOUBLE_BYTES
    for core_id, _, a_base, _, _ in lanes:
        warm_region(
            h.l2[h.module_of(core_id)], a_base, na * a_sliver_bytes, line
        )
    if h.l3 is not None:
        warm_region(h.l3, B_BASE, nb * b_sliver_bytes, line)
    h.reset_stats()

    tile_cycles: List[List[int]] = [[] for _ in lanes]
    for j in range(nb):
        cols = slice(j * nr, (j + 1) * nr)
        for i in range(na):
            rows = slice(i * mr, (i + 1) * mr)
            for (core_id, packed_a, a_base, c_base, c_panel), cycles in zip(
                lanes, tile_cycles
            ):
                bases = {
                    A_POINTER.index: a_base + i * a_sliver_bytes,
                    B_POINTER.index: B_BASE + j * b_sliver_bytes,
                    C_POINTER.index: c_base
                    + (j * nr * mc + i * mr) * DOUBLE_BYTES,
                }
                run = run_timed_micro_tile(
                    kernel,
                    packed_a[i],
                    packed_b[j],
                    c_panel[rows, cols],
                    chip=chip,
                    hierarchy=h,
                    core_id=core_id,
                    hw_late=hw_late,
                    warm_l2=False,
                    timing_bases=bases,
                    engine=engine,
                    metrics=metrics,
                )
                c_panel[rows, cols] = run.c_tile
                cycles.append(run.cycles)

    iters = na * nb * kc
    flops = 2 * mc * nc * kc
    return [
        GebpTimedRun(
            c_panel=lane[4],
            cycles=sum(cycles),
            cycles_per_iteration=sum(cycles) / iters,
            efficiency=(flops / sum(cycles)) / chip.core.flops_per_cycle,
            tile_cycles=cycles,
            engine=selected,
            fallback_reason=fallback_reason,
        )
        for lane, cycles in zip(lanes, tile_cycles)
    ]


def run_timed_gebp_dual(
    kernel: GeneratedKernel,
    packed_a0: "np.ndarray",
    packed_a1: "np.ndarray",
    packed_b: "np.ndarray",
    chip: ChipParams = XGENE,
    cores: Tuple[int, int] = (0, 1),
    hw_late: float = 0.25,
    hierarchy: Optional[MemoryHierarchy] = None,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[GebpTimedRun, GebpTimedRun]:
    """Two cores of one module run their GEBPs interleaved tile-by-tile.

    This is the eq.-(19) experiment at instruction level: each core owns
    its packed A block, both share the packed B panel, and both A blocks
    compete for the *same physical L2*. With the serial mc the two blocks
    overflow it and the A streams fall back to L3/DRAM latencies (visible
    in the load histograms); with the parallel mc they coexist — the
    Table VI phenomenon reproduced cycle by cycle.

    Args:
        kernel: Generated even-tile kernel (both cores run it).
        packed_a0, packed_a1: Each core's packed A block ``(na, kc, mr)``.
        packed_b: The shared packed B panel ``(nb, kc, nr)``.
        chip: Architecture.
        cores: The two core ids; must live on one module.
        hw_late: Hardware-prefetcher lateness.
        hierarchy: Pass a fresh hierarchy to inspect its statistics
            afterwards (the shared L2's miss counts are where the
            overflow shows; the run's timing is optimistic because the
            timed executor treats prefetches as always timely).
        engine: One of :data:`TIMED_ENGINES`, forwarded to every
            micro-tile run.

    Returns:
        One :class:`GebpTimedRun` per core (C panels start at zero).
    """
    if packed_a0.shape != packed_a1.shape:
        raise SimulationError("both cores need equally-shaped A blocks")
    panel_shape = (
        packed_a0.shape[0] * kernel.spec.mr,
        packed_b.shape[0] * kernel.spec.nr,
    )
    run0, run1 = _run_gebp_lanes(
        kernel,
        (
            (cores[0], packed_a0, A_BASE, 0x4000000, np.zeros(panel_shape)),
            (cores[1], packed_a1, A_BASE + (1 << 26), 0x5000000,
             np.zeros(panel_shape)),
        ),
        packed_b, chip, hierarchy, hw_late, engine, metrics,
    )
    return run0, run1


def run_timed_gebp(
    kernel: GeneratedKernel,
    packed_a: "np.ndarray",
    packed_b: "np.ndarray",
    c_panel: Optional["np.ndarray"] = None,
    chip: ChipParams = XGENE,
    core_id: int = 0,
    hw_late: float = 0.25,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> GebpTimedRun:
    """Execute and time a whole GEBP (layers 5-7) on one simulated core.

    The packed buffers live at their true offsets in the timed address
    space — A slivers consecutive in one L2-resident block, B slivers
    consecutive in one panel — so cross-tile cache reuse (the B sliver
    surviving across the A-sliver loop, A slivers evicting each other) is
    captured exactly.

    Args:
        kernel: Generated even-tile kernel.
        packed_a: Output of :func:`repro.gemm.packing.pack_a`,
            ``(na, kc, mr)``.
        packed_b: Output of :func:`repro.gemm.packing.pack_b`,
            ``(nb, kc, nr)``.
        c_panel: Initial ``na*mr x nb*nr`` C panel (zeros when omitted).
        chip: Architecture.
        core_id: Executing core.
        hw_late: Hardware-prefetcher lateness.
        engine: One of :data:`TIMED_ENGINES`, forwarded to every
            micro-tile run.
    """
    if c_panel is None:
        c_panel = np.zeros(
            (packed_a.shape[0] * kernel.spec.mr,
             packed_b.shape[0] * kernel.spec.nr)
        )
    (run,) = _run_gebp_lanes(
        kernel,
        ((core_id, packed_a, A_BASE, 0x2000000,
          np.array(c_panel, dtype=np.float64)),),
        packed_b, chip, None, hw_late, engine, metrics,
    )
    return run
