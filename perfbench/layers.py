"""The per-layer breakdown: traced boundaries and the metrics they yield.

Layers are named after the ``src/repro/`` packages. Each traced boundary
is a public function or method; its span yields ``<span>.calls`` (a
count) and ``<span>.self_s`` (wall time inside the span not covered by
its child spans, see :func:`tracer.account`). Counters come from the
wrappers (records, accesses, cycles) and from the program's own public
counters (``ServeStats``, the ``metrics=`` registries of ``QueryEngine``
and ``tune_search``, the tune result's ``space`` section and
``WorkerPool.jobs_dispatched``).

Each boundary carries its prediction, corrected from traced runs: the
end-to-end metric a speed-up there should move, the workload where it
takes the most self time, and the workloads where it is never called.
``test_perfbench.py`` checks that every boundary fires on its ``most``
workload and stays at zero calls on its ``none`` workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

SERVE_COLD = "serve-cold"
SERVE_WARM = "serve-warm"
TUNE_COLD = "tune-cold"
SWEEP = "sweep-replacement"

#: Workloads in the order BENCHMARK.json lists them.
WORKLOADS = (SERVE_COLD, SERVE_WARM, TUNE_COLD, SWEEP)

#: The query kinds the serve layer answers (``serve.kind.<kind>.self_s``).
KINDS = ("simulate", "cachesim", "timed", "stencil", "conv")


@dataclass(frozen=True)
class Boundary:
    """One traced public function or method.

    Attributes:
        span: Span name, ``<layer>.<function>``.
        module, attr: Where the function is defined.
        cls: Defining class for a method (subclass overrides are wrapped
            too), ``None`` for a module-level function.
        moves: End-to-end metric a speed-up here should move.
        most: Workload where the boundary takes the most self time (the
            most calls where its self time is negligible everywhere:
            ``simulate_gebp_cache`` and ``solve_cache_blocking``).
        none: Workloads where it is never called.
    """

    span: str
    module: str
    attr: str
    cls: Optional[str]
    moves: str
    most: str
    none: Tuple[str, ...]


def _b(span, module, attr, cls, moves, most, none=()):
    return Boundary(span, module, attr, cls, moves, most, tuple(none))


BOUNDARIES = (
    # kernels: register-kernel codegen.
    _b("kernels.solve_rotation", "repro.kernels.rotation", "solve_rotation",
       None, "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    _b("kernels.generate_kernel", "repro.kernels.codegen", "generate_kernel",
       None, "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    _b("kernels.compile_kernel", "repro.kernels.compiled", "compile_kernel",
       None, "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    # sim: trace synthesis, the analytic model, the GEBP replay driver.
    _b("sim.gebp_traces", "repro.sim.gebp_cachesim", "gebp_traces", None,
       "queries_per_s", SWEEP, (SERVE_WARM, TUNE_COLD)),
    _b("sim.synthesize_trace", "repro.sim.synthetic_trace",
       "synthesize_trace", None, "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    _b("sim.simulate", "repro.sim.gemm_sim", "simulate", "GemmSimulator",
       "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    _b("sim.simulate_gebp_cache", "repro.sim.gebp_cachesim",
       "simulate_gebp_cache", None, "queries_per_s", SWEEP,
       (SERVE_WARM, TUNE_COLD)),
    # memory: the cache/TLB walk.
    _b("memory.hierarchy_init", "repro.memory.hierarchy", "__init__",
       "MemoryHierarchy", "queries_per_s", SWEEP, (SERVE_WARM,)),
    _b("memory.run_batch", "repro.memory.hierarchy", "run_batch",
       "MemoryHierarchy", "queries_per_s", SWEEP, (SERVE_WARM, TUNE_COLD)),
    _b("memory.run_batch_levels", "repro.memory.hierarchy",
       "run_batch_levels", "MemoryHierarchy", "queries_per_s", SERVE_COLD,
       (SERVE_WARM, SWEEP)),
    _b("memory.snapshot", "repro.memory.hierarchy", "snapshot",
       "MemoryHierarchy", "queries_per_s", SERVE_COLD,
       (SERVE_WARM, TUNE_COLD, SWEEP)),
    _b("memory.restore", "repro.memory.hierarchy", "restore",
       "MemoryHierarchy", "queries_per_s", SERVE_COLD,
       (SERVE_WARM, TUNE_COLD, SWEEP)),
    # pipeline: the scoreboard.
    _b("pipeline.run_compiled", "repro.pipeline.scoreboard", "run_compiled",
       "ScoreboardCore", "queries_per_s", SERVE_COLD, (SERVE_WARM, SWEEP)),
    _b("pipeline.run", "repro.pipeline.scoreboard", "run", "ScoreboardCore",
       "queries_per_s", SERVE_COLD, (SERVE_WARM, TUNE_COLD, SWEEP)),
    # workloads: the stencil/conv drivers.
    _b("workloads.run", "repro.workloads.base", "run", "Workload",
       "queries_per_s", SERVE_COLD, (SERVE_WARM, TUNE_COLD, SWEEP)),
    _b("workloads.simulate_workload_cache", "repro.workloads.base",
       "simulate_workload_cache", None, "queries_per_s", SERVE_COLD,
       (SERVE_WARM, TUNE_COLD, SWEEP)),
    _b("workloads.timed_workload", "repro.workloads.base", "timed_workload",
       None, "queries_per_s", SERVE_COLD, (SERVE_WARM, TUNE_COLD, SWEEP)),
    # gemm: the functional DGEMM (pool jobs are traced by the submit wrapper).
    _b("gemm.dgemm", "repro.gemm.driver", "dgemm", None, "queries_per_s",
       SERVE_COLD, (SERVE_WARM, TUNE_COLD, SWEEP)),
    # serve: the query engine and its store.
    _b("serve.run_batch", "repro.serve.engine", "run_batch", "QueryEngine",
       "latency_p50_ms", SERVE_WARM, (TUNE_COLD, SWEEP)),
    _b("serve.query_key", "repro.serve.query", "query_key", None,
       "latency_p50_ms", SERVE_WARM, (TUNE_COLD, SWEEP)),
    _b("serve.store_get", "repro.serve.store", "get", "ResultStore",
       "latency_p50_ms", SERVE_WARM, (SWEEP,)),
    _b("serve.store_put", "repro.serve.store", "put", "ResultStore",
       "pass_s", TUNE_COLD, (SERVE_WARM, SWEEP)),
    _b("serve.compute_answer", "repro.serve.engine", "compute_answer", None,
       "queries_per_s", SERVE_COLD, (SERVE_WARM, TUNE_COLD, SWEEP)),
    # tune: the two-stage search.
    _b("tune.tune_search", "repro.tune.search", "tune_search", None,
       "pass_s", TUNE_COLD, (SERVE_COLD, SERVE_WARM, SWEEP)),
    _b("tune.analytic_eval", "repro.tune.evaluate", "analytic_eval", None,
       "pass_s", TUNE_COLD, (SERVE_COLD, SERVE_WARM, SWEEP)),
    _b("tune.timed_eval", "repro.tune.evaluate", "timed_eval", None,
       "pass_s", TUNE_COLD, (SERVE_COLD, SERVE_WARM, SWEEP)),
    # blocking: the Table III block-size solver.
    _b("blocking.solve_cache_blocking", "repro.blocking.cache_blocking",
       "solve_cache_blocking", None, "queries_per_s", SERVE_COLD,
       (SERVE_WARM,)),
)

#: Every span name: the boundaries plus the pool-job span on workers.
SPANS = tuple(b.span for b in BOUNDARIES) + ("gemm.pool.job",)

#: Counters and ratios beyond the per-span calls/self_s pairs:
#: ``(name, unit, better, moves, most)``. Pool wait and busy times are
#: summed over jobs, and ``idle_ratio`` is 0 where no pool runs. A
#: ``serve.kind.<kind>.self_s`` is the self time of that kind's
#: ``compute_answer`` spans and all their descendants. The ``trace.*``
#: rows describe the traced run itself and should move nothing.
COUNTERS = (
    ("sim.gebp_traces.records", "count", "lower", "queries_per_s", SWEEP),
    ("memory.accesses", "count", "lower", "queries_per_s", SWEEP),
    ("memory.fallback_accesses", "count", "lower", "queries_per_s", SWEEP),
    ("memory.fallback_ratio", "ratio", "lower", "queries_per_s", SWEEP),
    ("pipeline.cycles", "count", "lower", "queries_per_s", SERVE_COLD),
    ("pipeline.host_ns_per_cycle", "ns", "lower", "queries_per_s",
     SERVE_COLD),
    ("gemm.pool.jobs", "count", "lower", "queries_per_s", SERVE_COLD),
    ("gemm.pool.queue_wait_s", "s", "lower", "queries_per_s", SERVE_COLD),
    ("gemm.pool.busy_s", "s", "lower", "queries_per_s", SERVE_COLD),
    ("gemm.pool.idle_ratio", "ratio", "lower", "queries_per_s", SERVE_COLD),
) + tuple(
    (f"serve.kind.{kind}.self_s", "s", "lower", "queries_per_s", SERVE_COLD)
    for kind in KINDS
) + (
    ("serve.hits", "count", "higher", "latency_p50_ms", SERVE_WARM),
    ("serve.computed", "count", "lower", "queries_per_s", SERVE_COLD),
    ("serve.deduped", "count", "higher", "queries_per_s", SERVE_COLD),
    ("serve.errors", "count", "lower", "queries_per_s", SERVE_COLD),
    ("serve.hit_ratio", "ratio", "higher", "latency_p50_ms", SERVE_WARM),
    ("serve.store_bytes", "B", "lower", "pass_s", TUNE_COLD),
    ("tune.candidates", "count", "higher", "pass_s", TUNE_COLD),
    ("tune.timed_variants", "count", "lower", "pass_s", TUNE_COLD),
    ("tune.prune_ratio", "ratio", "higher", "pass_s", TUNE_COLD),
    ("tune.memo_misses", "count", "lower", "pass_s", TUNE_COLD),
    ("trace.wall_s", "s", "lower", None, None),
    ("trace.other_self_s", "s", "lower", None, None),
    ("trace.overhead_ratio", "ratio", "lower", None, None),
)


def per_layer_metrics():
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    rows = []
    for span in SPANS:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
    rows.extend((name, unit, better) for name, unit, better, _, _ in COUNTERS)
    return rows
