"""Command-line interface.

Exposes the library's main entry points without writing Python::

    repro blocks --mr 8 --nr 6 --threads 8     # Table III derivation
    repro kernel --variant OpenBLAS-8x6        # Fig. 8 assembly
    repro simulate --kernel OpenBLAS-8x6 --size 4096 --threads 8
    repro microbench                           # Table IV ladder
    repro cachesim --kernel OpenBLAS-8x6       # cache replay, both engines
    repro timed --kernel OpenBLAS-8x6          # timed run, both engines
    repro pool --threads 4                     # worker-pool engine timing
    repro sweep --threads 8 --start 256 --stop 6400 --step 512
    repro verify --suite all --seed 0          # differential fuzz sweep
    repro verify --replay tests/cases/x.json   # re-run a shrunk case
    repro query --batch jobs.jsonl             # memoized query serving
    repro serve --warm xgene                   # pre-warm the result cache
    repro asym --machine big_little            # big.LITTLE partition/energy
    repro stencil --smoke                      # blocked-vs-unblocked stencil
    repro conv --smoke                         # direct-vs-im2col convolution
    repro report out.json                      # render a structured report
    repro report --diff baseline.json out.json # regression comparison

Each subcommand is one :class:`Command` entry of :data:`COMMANDS`: a
handler, its help text and its argument specs. Options several commands
share (``--kernel``, ``--machine``, ``--seed``, ``--smoke``,
``--cache-dir``, the worker-pool size) are defined once below.

All subcommands print plain text and accept ``--json <path>`` to also
write a structured, schema-versioned :class:`~repro.obs.RunReport`
(engine selections, metric counters, stat-object snapshots) — the input
of ``repro report``. Handlers return an :class:`Outcome`; :func:`main`
alone writes the report and turns a :class:`~repro.errors.ReproError`
into ``error: ...`` with exit code 1. ``main`` returns a process exit
code so it can be unit-tested directly.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.analysis.report import format_series, format_table
from repro.arch.presets import XGENE, get_preset, preset_names
from repro.blocking.cache_blocking import solve_cache_blocking
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.engines import TIMED_ENGINES
from repro.errors import ReproError
from repro.kernels.variants import VARIANTS, get_variant
from repro.obs import MetricsRegistry, RunReport
from repro.sim.gemm_sim import GemmSimulator
from repro.sim.microbench import run_microbench


@dataclass
class Outcome:
    """A finished run: its exit code and the sections of its RunReport."""

    params: Dict[str, Any]
    stats: Dict[str, Any]
    engines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    code: int = 0


#: What a handler returns: an :class:`Outcome`, or a bare exit code for
#: a run with nothing to report (``verify --list``, ``report``).
Result = Union[int, Outcome]

#: The registry a handler records into (None unless ``--json`` is given
#: and the command is metered).
Metrics = Optional[MetricsRegistry]


def _worker_pool(size: int, flag: str):
    """A context holding a ``size``-thread worker pool, closed on exit.

    Yields None for ``size == 1`` (compute inline); ``flag`` names the
    option in the error for a size below 1.
    """
    from repro.gemm.pool import WorkerPool

    if size < 1:
        raise ReproError(f"{flag} must be >= 1, got {size}")
    return WorkerPool(size) if size > 1 else contextlib.nullcontext()


def _sizes(args: argparse.Namespace) -> List[int]:
    """The ``--start`` to ``--stop`` (inclusive) sizes, ``--step`` apart."""
    if args.step < 1:
        raise ReproError(f"--step must be >= 1, got {args.step}")
    sizes = list(range(args.start, args.stop + 1, args.step))
    if not sizes:
        raise ReproError(
            f"empty size range: --start {args.start} is above "
            f"--stop {args.stop}"
        )
    return sizes


def _cmd_blocks(args: argparse.Namespace, metrics: Metrics) -> Result:
    chip = XGENE
    if args.mr is None or args.nr is None:
        best = RegisterBlockingProblem.from_core(chip.core).solve()
        mr, nr = best.mr, best.nr
        print(f"register blocking: {mr}x{nr} (gamma {best.gamma:.3f}, "
              f"nrf {best.nrf})")
    else:
        mr, nr = args.mr, args.nr
    blk = solve_cache_blocking(chip, mr, nr, threads=args.threads)
    print(f"cache blocking for {args.threads} thread(s) on {chip.name}: "
          f"{blk}  (k1={blk.k1}, k2={blk.k2}, k3={blk.k3})")
    return Outcome(
        params={"mr": mr, "nr": nr, "threads": args.threads},
        stats={"blocking": {
            "mr": blk.mr, "nr": blk.nr, "kc": blk.kc, "mc": blk.mc,
            "nc": blk.nc, "k1": blk.k1, "k2": blk.k2, "k3": blk.k3,
        }},
    )


def _cmd_kernel(args: argparse.Namespace, metrics: Metrics) -> Result:
    kernel = get_variant(args.variant, kc=args.kc)
    body = kernel.body
    print(f"// {args.variant}: {len(body)} instructions per body "
          f"({body.num_fmla} fmla, {body.num_loads} ldr, "
          f"{body.num_prefetches} prfm), LDR:FMLA = "
          f"{body.ldr_fmla_ratio[0]}:{body.ldr_fmla_ratio[1]}")
    print(f"// rotation distance {kernel.plan.min_distance}, "
          f"schedule distance {kernel.schedule.min_load_use_distance}")
    print(body.to_text())
    return Outcome(
        params={"variant": args.variant, "kc": args.kc},
        stats={"body": {
            "instructions": len(body),
            "fmla": body.num_fmla,
            "ldr": body.num_loads,
            "prfm": body.num_prefetches,
            "rotation_distance": kernel.plan.min_distance,
            "schedule_distance": kernel.schedule.min_load_use_distance,
        }},
    )


def _cmd_simulate(args: argparse.Namespace, metrics: Metrics) -> Result:
    sim = GemmSimulator(XGENE, metrics=metrics)
    m = args.m or args.size
    n = args.n or args.size
    k = args.k or args.size
    perf = sim.simulate(args.kernel, m, n, k, threads=args.threads)
    print(f"{args.kernel} on {m}x{n}x{k}, {args.threads} thread(s): "
          f"{perf.gflops:.2f} Gflops ({perf.efficiency:.1%} of "
          f"{XGENE.peak_flops_for(args.threads) / 1e9:.1f} Gflops peak)")
    print(f"blocking: {perf.blocking}")
    total = sum(v for k_, v in perf.breakdown.items()
                if k_ != "bandwidth_floor")
    for name, cycles in perf.breakdown.items():
        if name == "bandwidth_floor":
            continue
        print(f"  {name:10s} {cycles / max(total, 1):6.1%} of modeled cycles")
    return Outcome(
        params={"kernel": args.kernel, "m": m, "n": n, "k": k,
                "threads": args.threads},
        engines={"model": {"requested": "analytic", "selected": "analytic",
                           "fallback_reason": None}},
        stats={"performance": {
            "cycles": perf.cycles,
            "flops": perf.flops,
            "gflops": perf.gflops,
            "efficiency": perf.efficiency,
            "l1_loads": perf.l1_loads,
            "breakdown": dict(perf.breakdown),
        }},
    )


def _cmd_microbench(args: argparse.Namespace, metrics: Metrics) -> Result:
    rows = run_microbench()
    print(format_table(
        ["LDR:FMLA", "model %", "paper %"],
        [[r.ratio_label, r.model_efficiency * 100, r.paper_efficiency * 100]
         for r in rows],
        title="Table IV ladder",
    ))
    return Outcome(
        params={},
        stats={"ladder": {
            r.ratio_label: {
                "model_efficiency": r.model_efficiency,
                "paper_efficiency": r.paper_efficiency,
            }
            for r in rows
        }},
    )


def _cmd_pool(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Exercise the persistent-pool parallel engine on real OS threads.

    Times a loop of small-matrix ``parallel_dgemm`` calls under the
    per-iteration thread-spawn baseline and under the persistent worker
    pool, then prints the pool's per-thread pack/GEBP counters — the
    engine's observability hook.
    """
    import numpy as np

    from repro.blocking.cache_blocking import CacheBlocking
    from repro.gemm import PoolStats, WorkerPool, parallel_dgemm
    from repro.obs import snapshot_pool_stats

    if args.reps < 1:
        raise ReproError(f"--reps must be >= 1, got {args.reps}")
    if args.size < 1:
        raise ReproError(f"--size must be >= 1, got {args.size}")
    rng = np.random.default_rng(0)
    size = args.size
    a = np.asfortranarray(rng.standard_normal((size, size)))
    b = np.asfortranarray(rng.standard_normal((size, size)))
    c = np.asfortranarray(rng.standard_normal((size, size)))
    # Small blocks so the loop nest has many barrier steps — the regime
    # where engine overhead, not arithmetic, dominates.
    blk = CacheBlocking(mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2, k3=1)

    def run_loop(pool) -> float:
        parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                       blocking=blk, use_os_threads=True, pool=pool)
        t0 = time.perf_counter()
        for _ in range(args.reps):
            parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                           blocking=blk, use_os_threads=True, pool=pool)
        return time.perf_counter() - t0

    spawn_s = run_loop("spawn")
    with WorkerPool(args.threads) as pool:
        pool_s = run_loop(pool)
        stats = PoolStats()
        parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                       blocking=blk, use_os_threads=True, pool=pool,
                       stats=stats)
    print(format_table(
        ["engine", "total s", "ms/call"],
        [["spawn-per-iteration", spawn_s, spawn_s / args.reps * 1e3],
         ["persistent pool", pool_s, pool_s / args.reps * 1e3]],
        title=f"{size}x{size}x{size}, {args.threads} threads, "
              f"{args.reps} calls",
    ))
    print(f"pool speedup: {spawn_s / pool_s:.2f}x over per-iteration "
          f"spawning ({stats.steps} barrier steps/call)")
    print(format_table(
        ["thread", "packA", "packB", "gebp",
         "packA ms", "packB ms", "gebp ms"],
        stats.summary_rows(),
        title="per-thread counters (one call)",
    ))
    return Outcome(
        params={"threads": args.threads, "size": args.size,
                "reps": args.reps},
        engines={"pool": {"requested": "persistent",
                          "selected": "persistent",
                          "fallback_reason": None}},
        stats={
            "pool": snapshot_pool_stats(stats),
            "timing": {
                "spawn_seconds": spawn_s,
                "pool_seconds": pool_s,
                "speedup": spawn_s / pool_s,
            },
        },
    )


def _cmd_cachesim(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Replay a GEBP slice through the cache sim, timing both engines.

    Runs the scalar oracle and the vectorized batched engine on fresh
    identical hierarchies, checks their counters are bit-identical and
    prints throughput plus the Table VII miss-rate view.
    """
    import dataclasses

    from repro.memory.hierarchy import MemoryHierarchy
    from repro.obs import snapshot_gebp_cache_result, snapshot_hierarchy
    from repro.sim.gebp_cachesim import gebp_traces, simulate_gebp_cache

    sim = GemmSimulator(XGENE)
    spec = VARIANTS[args.kernel]
    blk = sim.default_blocking(args.kernel, args.threads)
    warm, main_trace, _ = gebp_traces(
        spec, blk, chip=XGENE, nc_slice=args.nc_slice
    )
    line = XGENE.l1d.line_bytes
    accesses = warm.line_count(line) + main_trace.line_count(line)

    results = {}
    timings = {}
    hierarchies = {}
    for engine in ("scalar", "batched"):
        h = MemoryHierarchy(XGENE, seed=args.seed)
        hierarchies[engine] = h
        t0 = time.perf_counter()
        results[engine] = simulate_gebp_cache(
            spec, blk, chip=XGENE, hierarchy=h,
            nc_slice=args.nc_slice, engine=engine, metrics=metrics,
        )
        timings[engine] = time.perf_counter() - t0

    identical = dataclasses.astuple(results["scalar"]) == dataclasses.astuple(
        results["batched"]
    )
    print(f"{args.kernel}, {args.threads} thread(s), blocking {blk}")
    print(format_table(
        ["engine", "seconds", "accesses/s"],
        [[e, timings[e], accesses / timings[e]] for e in results],
        title=f"replay of {accesses} line accesses",
    ))
    print(f"speedup: {timings['scalar'] / timings['batched']:.1f}x, "
          f"counters bit-identical: {identical}")
    r = results["batched"]
    print(f"L1: {r.l1_loads} loads, {r.l1_load_misses} misses "
          f"({r.l1_load_miss_rate:.2%}); L2: {r.l2_loads} loads, "
          f"{r.l2_load_misses} misses; DRAM: {r.dram_accesses} lines")
    fallback = hierarchies["batched"].batched_fallback_accesses()
    if fallback:
        print(f"warning: {fallback} line accesses took the batched "
              f"engine's per-access scalar fallback (non-LRU replacement "
              f"levels)")
    if not identical:
        print("error: engines disagree", file=sys.stderr)
    return Outcome(
        params={"kernel": args.kernel, "threads": args.threads,
                "nc_slice": args.nc_slice, "seed": args.seed},
        engines={
            e: {"requested": e, "selected": e, "fallback_reason": None}
            for e in results
        },
        stats={
            "result": snapshot_gebp_cache_result(r),
            "hierarchy": snapshot_hierarchy(hierarchies["batched"]),
            "identical": identical,
        },
        code=0 if identical else 1,
    )


def _cmd_timed(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Timing-functional kernel run, comparing execution engines.

    With ``--engine both`` (the default) runs one micro-tile of the
    chosen variant through the interpreted oracle and the compiled
    template engine, checks every observable (cycles, stall breakdown,
    load-latency histogram, C values) is bit-identical, and prints the
    timing detail plus engine throughput. With a single engine runs only
    that one — ``auto`` reports when (and why) it fell back to the
    interpreter on a non-compilable kernel.
    """
    import numpy as np

    from repro.obs import snapshot_timed_run

    sim = GemmSimulator(XGENE, metrics=metrics)
    engine_list = (
        ["interpreted", "compiled"]
        if args.engine == "both"
        else [args.engine]
    )
    runs = {}
    timings = {}
    for engine in engine_list:
        t0 = time.perf_counter()
        runs[engine] = sim.timed_kernel(
            args.kernel, kc=args.kc, engine=engine, hw_late=args.hw_late,
            seed=args.seed,
        )
        timings[engine] = time.perf_counter() - t0
    identical = True
    if args.engine == "both":
        ri, rc = runs["interpreted"], runs["compiled"]
        identical = (
            ri.pipeline == rc.pipeline
            and ri.load_latencies == rc.load_latencies
            and np.array_equal(ri.c_tile, rc.c_tile)
        )
    r = runs[engine_list[-1]]
    kc = args.kc or round(r.cycles / r.cycles_per_iteration)
    print(f"{args.kernel}, kc={kc}: {r.cycles} cycles "
          f"({r.cycles_per_iteration:.3f}/iter), "
          f"efficiency {r.efficiency:.1%}")
    p = r.pipeline
    print(f"stalls: raw {p.raw_stall_cycles}, structural "
          f"{p.structural_stall_cycles}, war {p.war_stall_cycles}; "
          f"ipc {p.ipc:.2f}")
    hist = ", ".join(
        f"{lat}cy x{cnt}" for lat, cnt in sorted(r.load_latencies.items())
    )
    print(f"load latencies: {hist}")
    print(format_table(
        ["engine", "seconds", "k-iters/s"],
        [[e, timings[e], kc / timings[e]] for e in runs],
        title="engine timing",
    ))
    if args.engine == "both":
        print(f"speedup: "
              f"{timings['interpreted'] / timings['compiled']:.1f}x, "
              f"bit-identical: {identical}")
    else:
        print(f"engine: {r.engine} (requested {args.engine})")
        if r.fallback_reason is not None:
            print(f"auto fell back to the interpreter: {r.fallback_reason}")
    for engine, run in runs.items():
        if run.batched_fallback_accesses:
            print(f"warning: {run.batched_fallback_accesses} cache "
                  f"accesses took the per-access scalar fallback inside "
                  f"the {engine} engine's batched hierarchy replay")
    if not identical:
        print("error: engines disagree", file=sys.stderr)
    return Outcome(
        params={"kernel": args.kernel, "kc": kc, "hw_late": args.hw_late,
                "engine": args.engine, "seed": args.seed},
        engines={
            e: {"requested": args.engine, "selected": run.engine,
                "fallback_reason": run.fallback_reason}
            for e, run in runs.items()
        },
        stats={
            "run": snapshot_timed_run(r),
            "identical": identical,
        },
        code=0 if identical else 1,
    )


def _cmd_sweep(args: argparse.Namespace, metrics: Metrics) -> Result:
    sizes = _sizes(args)
    sim = GemmSimulator(XGENE, metrics=metrics)
    series = []
    for kernel in args.kernels:
        gfs = [
            sim.simulate(kernel, s, s, s, threads=args.threads).gflops
            for s in sizes
        ]
        series.append((kernel, gfs))
    print(format_series(sizes, series, x_label="size",
                        title=f"Gflops vs size ({args.threads} thread(s))"))
    return Outcome(
        params={"kernels": list(args.kernels), "threads": args.threads,
                "start": args.start, "stop": args.stop, "step": args.step},
        stats={"gflops": {
            kernel: {str(s): gf for s, gf in zip(sizes, gfs)}
            for kernel, gfs in series
        }},
    )


def _cmd_experiments(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Regenerate every paper exhibit into a results directory."""
    import pathlib

    from repro.analysis import (
        fig7_schedule,
        fig8_codegen,
        fig13_rotation_ablation,
        fig14_scaling,
        fig15_l1_loads,
        table1_rotation,
        table3_blocksizes,
        table4_microbench,
        table5_efficiency,
        table6_blocksize_sensitivity,
        table7_miss_rates,
        fig11_serial_sweep,
        fig12_parallel_sweep,
    )

    sizes = tuple(_sizes(args))
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def save(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {out / (name + '.txt')}")

    save("table1_rotation", format_table(
        ["slot"] + [f"#{i}" for i in range(8)],
        [[slot] + regs for slot, regs in table1_rotation().items()],
        title="Table I"))
    rep = fig7_schedule()
    save("fig7_schedule", format_table(
        ["scheme", "rotation", "schedule"],
        [["paper", rep.rotation_distance_paper, rep.schedule_distance_paper],
         ["solved", rep.rotation_distance_solved,
          rep.schedule_distance_solved]], title="Figs. 6/7"))
    save("fig8_codegen", fig8_codegen())
    save("table3_blocksizes", format_table(
        ["kernel", "1 thread", "8 threads"], table3_blocksizes(),
        title="Table III"))
    save("table4_microbench", format_table(
        ["ratio", "model %", "paper %"],
        [[r.ratio_label, r.model_efficiency * 100, r.paper_efficiency * 100]
         for r in table4_microbench()], title="Table IV"))
    save("table5_efficiency", format_table(
        ["impl", "T", "peak %", "paper %", "avg %", "paper avg %"],
        [[r.kernel, r.threads, r.peak * 100, r.paper_peak * 100,
          r.average * 100, r.paper_average * 100]
         for r in table5_efficiency(sizes=sizes)], title="Table V"))
    for name, data in (("fig11_serial_sweep", fig11_serial_sweep(sizes)),
                       ("fig12_parallel_sweep", fig12_parallel_sweep(sizes))):
        save(name, format_series(
            list(sizes),
            [(k, [r.gflops for r in v]) for k, v in data.items()],
            x_label="size", title=name))
    abl = fig13_rotation_ablation(sizes)
    blocks = []
    for setting, curves in abl.items():
        blocks.append(format_series(
            list(sizes),
            [(k, [r.gflops for r in v]) for k, v in curves.items()],
            x_label="size", title=f"Fig. 13 ({setting})"))
    save("fig13_rotation_ablation", "\n\n".join(blocks))
    scal = fig14_scaling(sizes)
    save("fig14_scaling", format_series(
        list(sizes),
        [(f"{t}T", [r.gflops for r in v]) for t, v in sorted(scal.items())],
        x_label="size", title="Fig. 14"))
    save("table6_blocksize_sensitivity", format_table(
        ["setting", "config", "peak %", "avg %"],
        [[s_, c, p * 100, a * 100]
         for s_, c, p, a in table6_blocksize_sensitivity(sizes=sizes)],
        title="Table VI"))
    loads = fig15_l1_loads(sizes)
    save("fig15_l1_loads", format_series(
        list(sizes),
        [(k, [x / 1e10 for x in v]) for k, v in loads.items()],
        x_label="size", title="Fig. 15 (x 10^10 loads)"))
    save("table7_miss_rates", format_table(
        ["kernel", "T", "model %", "paper %"],
        [[k, t, mr * 100, pr * 100] for k, t, mr, pr in table7_miss_rates()],
        title="Table VII"))
    print(f"all exhibits written to {out}/")
    return Outcome(
        params={"out": str(out), "start": args.start, "stop": args.stop,
                "step": args.step},
        stats={"exhibits": {
            p.stem: True for p in sorted(out.glob("*.txt"))
        }},
    )


def _cmd_verify(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Differential verification: fuzz sweep, self-test, case replay.

    The default mode runs a seeded sweep of every selected oracle plus
    the mutation self-test, prints a per-oracle summary, and exits
    nonzero if any case mismatches or the self-test fails to catch its
    injected fault. ``--replay FILE`` instead re-runs one committed case
    file; ``--list`` just prints the registry.
    """
    from repro.verify import (
        BUDGETS,
        all_oracles,
        replay_case,
        run_suite,
        suites,
    )

    if args.list:
        print(format_table(
            ["oracle", "suite", "checks"],
            [[o.name, o.suite, o.description] for o in all_oracles()],
            title=f"registered oracles (suites: {', '.join(suites())})",
        ))
        return 0

    if args.replay is not None:
        case = replay_case(args.replay)
        status = "PASS" if case.ok else "FAIL"
        print(f"{args.replay}: oracle {case.oracle} -> {status}")
        for mismatch in case.mismatches[:10]:
            print(f"  {mismatch}")
        return Outcome(
            params={"replay": str(args.replay), "oracle": case.oracle},
            stats={"verify": {
                "replay": str(args.replay),
                "oracle": case.oracle,
                "passed": case.ok,
                "mismatches": case.mismatches[:10],
            }},
            code=0 if case.ok else 1,
        )

    doc = run_suite(
        seed=args.seed,
        budget=args.budget,
        suite=args.suite,
        selftest=not args.no_selftest,
        shrink_dir=args.cases_dir,
    )
    cases = BUDGETS[args.budget]
    rows = []
    for name, entry in doc["oracles"].items():
        rows.append([
            name,
            entry["cases"],
            len(entry["failures"]),
            "pass" if entry["passed"] else "FAIL",
        ])
    print(format_table(
        ["oracle", "cases", "failures", "status"],
        rows,
        title=f"verify sweep: suite={args.suite} seed={args.seed} "
              f"budget={args.budget} ({cases} cases/oracle)",
    ))
    for name, entry in doc["oracles"].items():
        for failure in entry["failures"]:
            print(f"{name} case {failure['case_index']} mismatches:")
            for mismatch in failure["mismatches"][:5]:
                print(f"  {mismatch}")
            if "case_file" in failure:
                print(f"  shrunk repro written to {failure['case_file']}")
    if "selftest" in doc:
        caught = doc["selftest"]["passed"]
        print(f"mutation self-test: "
              f"{'fault caught by every oracle' if caught else 'FAILED'}")
    print(f"verify: {'PASS' if doc['passed'] else 'FAIL'}")
    return Outcome(
        params={"suite": args.suite, "seed": args.seed,
                "budget": args.budget},
        stats={"verify": doc},
        code=0 if doc["passed"] else 1,
    )


def _load_batch(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL batch file (``-`` = stdin); blank/# lines skipped."""
    import json

    if path == "-":
        fh = sys.stdin
    else:
        try:
            fh = open(path)
        except OSError as exc:
            raise ReproError(f"cannot read batch file {path}: {exc}")
    try:
        docs = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not a JSON query document: {exc}"
                )
        return docs
    finally:
        if fh is not sys.stdin:
            fh.close()


def _cmd_query(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Serve a batch of query documents through the memoized engine.

    Reads one JSON query per line from ``--batch``, answers each from
    the on-disk result cache (computing, deduplicating and persisting
    misses on the worker pool), and streams one RunReport-schema answer
    document per line to stdout (or ``--out``). The serving summary goes
    to stderr so piped answer streams stay clean. ``--expect-all-hits``
    exits nonzero unless every query was served from the cache — the
    hook CI uses to prove cache persistence across process runs.
    """
    from repro.serve import QueryEngine

    docs = _load_batch(args.batch)
    with _worker_pool(args.threads, "--threads") as pool:
        engine = QueryEngine(args.cache_dir, pool=pool, metrics=metrics)
        t0 = time.perf_counter()
        answers = engine.run_batch(docs)
        elapsed = time.perf_counter() - t0
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for answer in answers:
            out.write(answer.to_json_line() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    s = engine.stats
    rate = s.queries / elapsed if elapsed > 0 else float("inf")
    print(
        f"served {s.queries} queries in {elapsed:.3f}s ({rate:.0f}/s): "
        f"{s.hits} hits, {s.computed} computed, {s.deduped} deduped, "
        f"{s.errors} errors [cache {args.cache_dir}, "
        f"{args.threads} thread(s)]",
        file=sys.stderr,
    )
    missed = args.expect_all_hits and s.hits != s.queries
    if missed:
        print(
            f"error: expected all {s.queries} queries to hit the cache, "
            f"got {s.hits} hits",
            file=sys.stderr,
        )
    return Outcome(
        params={"batch": args.batch, "cache_dir": args.cache_dir,
                "threads": args.threads},
        stats={
            "serve": s.as_dict(),
            "timing": {
                "elapsed_seconds": elapsed,
                "queries_per_second": rate,
            },
        },
        code=1 if missed else 0,
    )


def _cmd_serve(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Pre-warm the result cache with a preset's standing query set."""
    from repro.serve import QueryEngine, ResultStore, warm_queries

    docs = warm_queries(args.warm)
    with _worker_pool(args.threads, "--threads") as pool:
        engine = QueryEngine(args.cache_dir, pool=pool, metrics=metrics)
        t0 = time.perf_counter()
        engine.run_batch(docs)
        elapsed = time.perf_counter() - t0
    s = engine.stats
    store = engine.store if isinstance(engine.store, ResultStore) else None
    print(f"warmed preset {args.warm!r}: {s.queries} queries in "
          f"{elapsed:.3f}s ({s.computed} computed, {s.hits} already "
          f"cached, {s.errors} errors)")
    if store is not None:
        print(f"cache {args.cache_dir}: {len(store)} entries, "
              f"{store.bytes_held()} bytes")
    return Outcome(
        params={"warm": args.warm, "cache_dir": args.cache_dir,
                "threads": args.threads},
        stats={
            "serve": s.as_dict(),
            "timing": {"elapsed_seconds": elapsed},
            "store": {
                "entries": len(store) if store is not None else 0,
                "bytes": store.bytes_held() if store is not None else 0,
            },
        },
        code=1 if s.errors else 0,
    )


def _cmd_tune(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Run the two-stage kernel search with persistent memoization."""
    from repro.serve import ResultStore
    from repro.tune import tune_search

    if args.smoke:
        # CI budget: small tile pool, tight neighborhoods, fixed seed.
        args.max_tiles = min(args.max_tiles, 3)
        args.radius = min(args.radius, 1)
        args.seed = 0
    with _worker_pool(args.pool, "--pool") as pool:
        store = ResultStore(args.cache_dir) if args.cache_dir else None
        t0 = time.perf_counter()
        result = tune_search(
            machine=args.machine,
            threads=args.threads,
            problem_size=args.problem_size,
            max_tiles=args.max_tiles,
            top_k=args.top_k,
            radius=args.radius,
            bodies=args.bodies,
            seed=args.seed,
            store=store,
            pool=pool,
            metrics=metrics,
        )
        elapsed = time.perf_counter() - t0
    win = result["winner"]
    cand = win["candidate"]
    space = result["space"]
    memo = result["memo"]
    hits = memo["analytic"]["hits"] + memo["timed"]["hits"]
    misses = memo["analytic"]["misses"] + memo["timed"]["misses"]
    print(f"tuned {result['machine']} in {elapsed:.3f}s: winner "
          f"{cand['mr']}x{cand['nr']} ({cand['rotation']} rotation, "
          f"{cand['schedule']} schedule) at "
          f"{cand['kc']}x{cand['mc']}x{cand['nc']}")
    print(f"  timed efficiency {win['timed']['efficiency']:.4f} "
          f"(analytic {win['analytic']['efficiency']:.4f})")
    print(f"  space: {space['enumerated']} candidates -> "
          f"{space['analytic_classes']} analytic classes -> "
          f"{space['timed_variants']} timed variants "
          f"(prune {result['stats']['prune_ratio']:.1f}x)")
    print(f"  memo: {hits} hits, {misses} computed"
          + (f" ({args.cache_dir})" if args.cache_dir else " (no store)"))
    return Outcome(
        params=dict(result["params"],
                    cache_dir=args.cache_dir or None, pool=args.pool),
        engines={
            "analytic": {"selected": "gemm-sim", "fallback_reason": None},
            "timed": {"selected": "compiled", "fallback_reason": None},
        },
        stats={
            "space": space,
            "prune_ratio": result["stats"]["prune_ratio"],
            "winner": win,
            "top": result["top"],
            "memo": memo,
            "timing": {"elapsed_seconds": elapsed},
        },
    )


def _cmd_asym(args: argparse.Namespace, metrics: Metrics) -> Result:
    """The asymmetric-chip exhibit: class-aware partition + energy.

    Prices every placement of interest (each core class alone, all
    cores split symmetrically, all cores split by modeled class rate)
    and prints the performance-vs-energy frontier per size, plus the
    headline weighted-over-symmetric speedup.
    """
    from repro.sim.asym import asym_exhibit

    chip = get_preset(args.machine)
    doc = asym_exhibit(chip=chip, kernel=args.kernel, smoke=args.smoke)
    print(f"{doc['chip']}: " + ", ".join(
        f"{name} x{c['cores']} @ {c['frequency_hz'] / 1e9:.1f} GHz "
        f"({c['modeled_gflops_per_core']:.2f} Gflops/core modeled)"
        for name, c in doc["classes"].items()
    ))
    for entry in doc["sizes"]:
        rows = [
            [name, p["threads"], p["gflops"], p["watts"],
             p["gflops_per_watt"]]
            for name, p in entry["placements"].items()
        ]
        print(format_table(
            ["placement", "T", "Gflops", "W", "Gflops/W"], rows,
            title=f"size {entry['size']}",
        ))
        print(f"  weighted speedup over symmetric: "
              f"{entry['weighted_speedup']:.3f}x")
    return Outcome(
        params={"machine": args.machine, "kernel": args.kernel,
                "smoke": args.smoke},
        stats=doc,
    )


def _workload_variant_rows(variants: Dict[str, Any]) -> List[List[Any]]:
    return [
        [name, v["l1_loads"], v["l1_load_misses"],
         f"{v['l1_load_miss_rate']:.4f}", v["dram_accesses"],
         v["cycles"], f"{v['gflops']:.3f}"]
        for name, v in variants.items()
    ]


def _cmd_stencil(args: argparse.Namespace, metrics: Metrics) -> Result:
    """The stencil exhibit: cache-blocked vs unblocked Jacobi sweeps.

    Proves the variants bit-identical, then prints the Table VII-style
    counter comparison — the blocked tile keeps its halo rows resident
    where the unblocked row-major sweep loses the up-arm reuse.
    """
    from repro.workloads.exhibit import stencil_exhibit

    chip = get_preset(args.machine)
    doc = stencil_exhibit(
        chip, height=args.height, width=args.width, radius=args.radius,
        iterations=args.iterations, seed=args.seed, smoke=args.smoke,
    )
    p = doc["params"]
    print(f"{doc['chip']}: {p['height']}x{p['width']} grid, radius "
          f"{p['radius']}, {p['iterations']} sweep(s), solved tile "
          f"{doc['block']['bi']}x{doc['block']['bj']}")
    print(format_table(
        ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
         "cycles", "Gflops"],
        _workload_variant_rows(doc["variants"]),
        title="stencil: blocked vs unblocked",
    ))
    print(f"  bit-identical outputs: {doc['bit_identical']}")
    print(f"  unblocked/blocked miss-rate ratio: "
          f"{doc['miss_rate_ratio']:.3f}x")
    print(f"  blocked speedup: {doc['speedup']:.3f}x")
    return Outcome(
        params={"machine": args.machine, **p},
        stats=doc,
        code=0 if doc["bit_identical"] else 1,
    )


def _cmd_conv(args: argparse.Namespace, metrics: Metrics) -> Result:
    """The convolution exhibit: direct vs im2col lowering.

    Both lowerings drive the identical GEBP stream; im2col pays the
    patches-matrix round trip through DRAM. Proves both bit-equality
    contracts (lowering-vs-lowering, blocked-vs-unblocked) first.
    """
    from repro.workloads.exhibit import conv_exhibit

    chip = get_preset(args.machine)
    doc = conv_exhibit(
        chip, cin=args.cin, height=args.height, width=args.width,
        kh=args.kh, kw=args.kw, filters=args.filters, seed=args.seed,
        smoke=args.smoke,
    )
    p = doc["params"]
    g = doc["gemm_shape"]
    blk = doc["blocking"]
    print(f"{doc['chip']}: {p['cin']}x{p['height']}x{p['width']} image, "
          f"{p['filters']} {p['kh']}x{p['kw']} filters -> GEMM "
          f"{g['m']}x{g['k']}x{g['n']} at "
          f"mc={blk['mc']} kc={blk['kc']} nc={blk['nc']}")
    print(format_table(
        ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
         "cycles", "Gflops"],
        _workload_variant_rows(doc["variants"]),
        title="conv: im2col vs direct",
    ))
    ok = doc["bit_identical"] and doc["bit_identical_unblocked"]
    print(f"  bit-identical lowerings: {doc['bit_identical']}; "
          f"vs unblocked: {doc['bit_identical_unblocked']}")
    print(f"  im2col/direct DRAM ratio: {doc['dram_ratio']:.3f}x")
    print(f"  direct speedup: {doc['speedup']:.3f}x")
    return Outcome(
        params={"machine": args.machine, **p},
        stats=doc,
        code=0 if ok else 1,
    )


def _cmd_report(args: argparse.Namespace, metrics: Metrics) -> Result:
    """Render, validate, or diff structured run reports.

    ``repro report out.json`` renders a report; ``--validate`` checks it
    against the schema only; ``--diff BASELINE CURRENT`` runs the
    regression comparator and exits nonzero on regressions (suppress
    with ``--warn-only``). With ``--diff``, ``--json`` writes the
    findings document instead of a RunReport.
    """
    import json

    from repro.obs import (
        compare_files,
        flatten,
        format_comparison,
        load_report_dict,
        validate_report,
    )

    if args.diff is not None:
        baseline_path, current_path = args.diff
        comp = compare_files(
            baseline_path, current_path, tolerance=args.tolerance
        )
        print(format_comparison(comp, baseline_path, current_path))
        if args.json:
            doc = {
                "baseline": baseline_path,
                "current": current_path,
                "tolerance": args.tolerance,
                "checked": comp.checked,
                "skipped": comp.skipped,
                "findings": [
                    {"path": f.path, "kind": f.kind, "note": f.note,
                     "baseline": f.baseline, "current": f.current}
                    for f in comp.findings
                ],
            }
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        if comp.regressions and not args.warn_only:
            return 1
        return 0

    if args.path is None:
        raise ReproError("report needs a file path or --diff A B")
    doc = load_report_dict(args.path)
    problems = validate_report(doc)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.path}: valid (schema version "
              f"{doc['schema_version']})")
        return 0
    print(f"{doc['command']} report (schema {doc['schema_version']}, "
          f"created {doc.get('created') or 'n/a'})")
    if doc.get("params"):
        print("params: " + ", ".join(
            f"{k}={v}" for k, v in sorted(doc["params"].items())
        ))
    for slot, entry in sorted(doc.get("engines", {}).items()):
        line = (f"engine {slot}: requested {entry.get('requested', '?')}, "
                f"selected {entry.get('selected', '?')}")
        if entry.get("fallback_reason"):
            line += f" (fallback: {entry['fallback_reason']})"
        print(line)
    rows = [
        [path, value]
        for path, value in sorted(flatten(doc.get("stats", {})))
    ]
    if rows:
        print(format_table(["stat", "value"], rows, title="stats"))
    counters = doc.get("metrics", {}).get("counters", {})
    if counters:
        print(format_table(
            ["counter", "value"],
            [[k, v] for k, v in sorted(counters.items())],
            title="metric counters",
        ))
    spans = doc.get("metrics", {}).get("spans", {})
    if spans:
        print(format_table(
            ["span", "count", "seconds"],
            [[k, s.get("count", 0), s.get("seconds", 0.0)]
             for k, s in sorted(spans.items())],
            title="span timers",
        ))
    return 0


#: One argument spec: the flags and the keyword arguments of
#: ``ArgumentParser.add_argument``.
Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> Arg:
    return flags, kwargs


# Options several subcommands share, each defined once.
_KERNEL_CHOICES = sorted(VARIANTS)
_KERNEL = _arg("--kernel", default="OpenBLAS-8x6", choices=_KERNEL_CHOICES)
_THREADS = _arg("--threads", type=int, default=1)


def _machine(default: str = "xgene",
             help: str = "machine preset to model") -> Arg:
    return _arg("--machine", default=default, choices=list(preset_names()),
                help=help)


def _seed(help: Optional[str] = None) -> Arg:
    return _arg("--seed", type=int, default=0, help=help)


def _smoke(help: str) -> Arg:
    return _arg("--smoke", action="store_true", help=help)


def _cache_dir(help: str = "result-store directory (created on demand)"
               ) -> Arg:
    return _arg("--cache-dir", default=".repro-cache", help=help)


def _pool_size(flag: str, default: int, help: str) -> Arg:
    """The worker-pool size option (opened through :func:`_worker_pool`)."""
    return _arg(flag, type=int, default=default, help=help)


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, help text and argument specs.

    ``metered`` handlers receive a :class:`~repro.obs.MetricsRegistry`
    when ``--json`` is given (None otherwise); the rest always get None
    and report an empty ``metrics`` section.
    """

    name: str
    handler: Callable[[argparse.Namespace, Metrics], Result]
    help: str
    args: Tuple[Arg, ...] = ()
    metered: bool = False


COMMANDS: Tuple[Command, ...] = (
    Command("blocks", _cmd_blocks, "derive block sizes analytically", (
        _arg("--mr", type=int, default=None),
        _arg("--nr", type=int, default=None),
        _THREADS,
    )),
    Command("kernel", _cmd_kernel, "emit register-kernel assembly", (
        _arg("--variant", default="OpenBLAS-8x6", choices=_KERNEL_CHOICES),
        _arg("--kc", type=int, default=512),
    )),
    Command("simulate", _cmd_simulate, "predict DGEMM performance", (
        _KERNEL,
        _arg("--size", type=int, default=2048),
        _arg("-m", type=int, default=None),
        _arg("-n", type=int, default=None),
        _arg("-k", type=int, default=None),
        _THREADS,
    ), metered=True),
    Command("microbench", _cmd_microbench, "the Table IV LDR:FMLA ladder"),
    Command(
        "experiments", _cmd_experiments,
        "regenerate every paper table/figure into a directory", (
            _arg("--out", default="results"),
            _arg("--start", type=int, default=256),
            _arg("--stop", type=int, default=6400),
            _arg("--step", type=int, default=512),
        )),
    Command(
        "pool", _cmd_pool,
        "time the persistent worker pool vs per-iteration spawning "
        "and show per-thread counters", (
            _arg("--threads", type=int, default=4),
            _arg("--size", type=int, default=160),
            _arg("--reps", type=int, default=10),
        )),
    Command(
        "cachesim", _cmd_cachesim,
        "event-accurate GEBP cache replay; times scalar vs batched "
        "engines and checks them bit-identical", (
            _KERNEL,
            _THREADS,
            _arg("--nc-slice", type=int, default=None),
            _seed("RANDOM-replacement victim RNG seed"),
        ), metered=True),
    Command(
        "timed", _cmd_timed,
        "timing-functional kernel run; times interpreted vs "
        "compiled engines and checks them bit-identical", (
            _KERNEL,
            _arg("--kc", type=int, default=None),
            _arg("--hw-late", type=float, default=0.25),
            _arg("--engine", default="both",
                 choices=["both", *TIMED_ENGINES],
                 help="run both engines and cross-check (default), or "
                      "a single one; 'auto' reports its fallback reason"),
            _seed("operand RNG seed"),
        ), metered=True),
    Command("sweep", _cmd_sweep, "Gflops vs matrix size", (
        _arg("--kernels", nargs="+", default=["OpenBLAS-8x6", "ATLAS-5x5"],
             choices=_KERNEL_CHOICES),
        _THREADS,
        _arg("--start", type=int, default=256),
        _arg("--stop", type=int, default=4096),
        _arg("--step", type=int, default=512),
    ), metered=True),
    Command(
        "verify", _cmd_verify,
        "differential fuzz sweep of every fast/reference engine "
        "pair, with mutation self-test and case replay", (
            _arg("--suite", default="all",
                 help="oracle suite to run ('all', or one of the "
                      "registered suites; see --list)"),
            _seed("top-level seed deterministically deriving every "
                  "per-oracle case stream"),
            _arg("--budget", default="default",
                 choices=["smoke", "default", "deep"],
                 help="cases per oracle"),
            _arg("--replay", metavar="FILE", default=None,
                 help="re-run one committed case file instead of "
                      "sweeping"),
            _arg("--cases-dir", default="tests/cases",
                 help="where shrunk repro files for new failures are "
                      "written"),
            _arg("--no-selftest", action="store_true",
                 help="skip the comparator mutation self-test"),
            _arg("--list", action="store_true",
                 help="print the oracle registry and exit"),
        )),
    Command(
        "query", _cmd_query,
        "serve JSONL query documents from the memoized result "
        "cache, computing misses concurrently on the worker pool", (
            _arg("--batch", metavar="FILE", required=True,
                 help="JSONL file with one query document per line "
                      "('-' reads stdin)"),
            _cache_dir(),
            _pool_size("--threads", 4,
                       "worker-pool size for computing cache misses "
                       "(1 = compute inline)"),
            _arg("--out", metavar="FILE", default=None,
                 help="write the answer stream here instead of stdout"),
            _arg("--expect-all-hits", action="store_true",
                 help="exit nonzero unless every query was served "
                      "from the cache"),
        ), metered=True),
    Command(
        "serve", _cmd_serve,
        "pre-warm the result cache with a machine preset's "
        "standing query set", (
            _arg("--warm", default="all",
                 choices=list(preset_names()) + ["all"],
                 help="which preset's warm query set to compute"),
            _cache_dir(),
            _pool_size("--threads", 4,
                       "worker-pool size for computing cache misses"),
        ), metered=True),
    Command(
        "tune", _cmd_tune,
        "search register tiles, rotation schemes, schedules and "
        "blockings with the two-stage memoized autotuner", (
            _machine(help="machine preset to tune for"),
            _arg("--threads", type=int, default=1,
                 help="thread count the blocking solver targets"),
            _arg("--problem-size", type=int, default=2048,
                 help="square DGEMM size the analytic stage prices"),
            _arg("--max-tiles", type=int, default=4,
                 help="top-gamma register tiles to enumerate"),
            _arg("--top-k", type=int, default=12,
                 help="analytic classes surviving into the timed stage"),
            _arg("--radius", type=int, default=1,
                 help="blocking-neighborhood radius per axis"),
            _arg("--bodies", type=int, default=2,
                 help="unrolled bodies per timed panel depth"),
            _seed("enumeration-order and timed-operand seed"),
            _pool_size("--pool", 1,
                       "worker-pool size for cache-missing evaluations "
                       "(1 = compute inline)"),
            _cache_dir("result-store directory for memoized evaluations "
                       "('' disables persistence)"),
            _smoke("tiny fixed-seed budget for CI"),
        ), metered=True),
    Command(
        "asym", _cmd_asym,
        "asymmetric-chip exhibit: class-aware partition vs the "
        "symmetric split, with the energy frontier", (
            _machine(default="big_little"),
            _KERNEL,
            _smoke("single-size CI budget"),
        )),
    Command(
        "stencil", _cmd_stencil,
        "stencil exhibit: cache-blocked vs unblocked Jacobi sweeps "
        "through the cache walk and the timed scoreboard", (
            _machine(),
            _arg("--height", type=int, default=None,
                 help="grid rows (default 64, 32 with --smoke)"),
            _arg("--width", type=int, default=None,
                 help="grid columns (default 2048)"),
            _arg("--radius", type=int, default=1),
            _arg("--iterations", type=int, default=2,
                 help="Jacobi sweeps"),
            _seed(),
            _smoke("narrow-grid CI budget"),
        )),
    Command(
        "conv", _cmd_conv,
        "convolution exhibit: direct gather nest vs im2col + DGEMM "
        "at the solved blocking", (
            _machine(),
            _arg("--cin", type=int, default=None,
                 help="input channels (default 3, 1 with --smoke)"),
            _arg("--height", type=int, default=None,
                 help="image rows (default 34, 18 with --smoke)"),
            _arg("--width", type=int, default=None,
                 help="image columns (default 34, 18 with --smoke)"),
            _arg("--kh", type=int, default=3, help="filter rows"),
            _arg("--kw", type=int, default=3, help="filter columns"),
            _arg("--filters", type=int, default=None,
                 help="output channels (default 16, 8 with --smoke)"),
            _seed(),
            _smoke("small-image CI budget"),
        )),
    Command(
        "report", _cmd_report,
        "render, validate, or diff structured run reports", (
            _arg("path", nargs="?", default=None,
                 help="report file to render"),
            _arg("--validate", action="store_true",
                 help="only check the file against the schema"),
            _arg("--diff", nargs=2, metavar=("BASELINE", "CURRENT"),
                 default=None,
                 help="compare two reports; exit nonzero on regressions"),
            _arg("--tolerance", type=float, default=0.05,
                 help="relative tolerance for float comparisons"),
            _arg("--warn-only", action="store_true",
                 help="report regressions but exit 0"),
        )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARMv8 DGEMM reproduction (ICPP 2015) toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
        p.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write a structured RunReport document to PATH",
        )
        p.set_defaults(entry=command)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    entry: Command = args.entry
    metrics = MetricsRegistry() if args.json and entry.metered else None
    try:
        outcome = entry.handler(args, metrics)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(outcome, int):
        return outcome
    if args.json:
        RunReport(
            command=entry.name,
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            params=outcome.params,
            engines=outcome.engines,
            metrics=metrics.as_dict() if metrics is not None else {},
            stats=outcome.stats,
        ).write(args.json)
        print(f"wrote {args.json}")
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
