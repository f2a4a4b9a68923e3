"""One benchmark sample: set up, run one workload pass, check, report.

``run.py`` starts this script once per sample, each time in a fresh
interpreter, and ``setup_s`` counts from the moment it was launched. A
fresh interpreter is not a detail: the program keeps in-process memos
(the ``gebp_traces`` trace cache, ``get_variant``'s kernel cache, the
compiled-kernel cache, the cachesim warm-state and timed template memos,
the tuner's plan and kernel caches). In one process, a second serve-cold
batch ran 1.8x faster than the first and a second tune-cold pass 1.3x
faster: a later pass measures a different program.

A pass is a sequence of requests into the program, each timed on its
own; the client's checks run between requests and are not timed. Probe
blocks (``probe.py``) run right after set-up, between segments of the
pass (each tune search, each sweep point, each warm pass over the
stream) and at its end, so the probe times sample the host's speed all
through the pass. The sample prints one JSON line: setup time,
per-request latencies, the probe times, counts of attempted and failed
operations with the reasons, a digest of every output, peak RSS, and
(with ``--trace 1``) the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import layers
import probe

#: Committed Table VII numbers the LRU sweep must reproduce.
TABLE7 = Path("benchmarks/results/table7_miss_rates.txt")

#: The Table VII loop: kernels x thread counts on X-Gene.
TABLE7_KERNELS = ("8x6", "8x4", "4x4")
TABLE7_THREADS = (1, 8)

#: Most failure messages one sample reports (the count is always exact).
MAX_PROBLEMS = 20


class Sample:
    """Timing windows, checks and digest of one sample."""

    def __init__(self, launched: float, tracer: Any) -> None:
        self.launched = launched
        self.tracer = tracer
        self.setup_s: Optional[float] = None
        self.windows: List[tuple] = []
        self.probes: List[float] = []
        self.answers = 0
        self.passes = 1
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = hashlib.sha256()
        self.layers: Dict[str, float] = {}

    def begin(self) -> None:
        """End of set-up: the first measured request comes next."""
        self.setup_s = time.monotonic() - self.launched
        self.mark(probe.BRACKET)
        if self.tracer is not None:
            self.tracer.active = True

    def mark(self, probes: int = probe.BLOCK) -> None:
        """A probe block between two segments of the pass (not timed)."""
        self.probes.extend(probe.block(probes))

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False
        self.mark(probe.BRACKET)

    def request(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """One timed call into the program."""
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.windows.append((start, time.perf_counter_ns()))

    def check(self, ok: bool, message: str, operations: int = 1) -> None:
        """Count ``operations`` as failed unless ``ok``."""
        if not ok:
            self.failed += operations
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(message)

    def output(self, text: str) -> None:
        self.digest.update(text.encode())
        self.digest.update(b"\n")

    def result(self) -> Dict[str, Any]:
        latencies = [(end - start) / 1e9 for start, end in self.windows]
        per_pass = len(latencies) // self.passes
        return {
            "setup_s": self.setup_s,
            # Each request's fastest repeat over the passes of this sample.
            "latencies_s": [min(latencies[i::per_pass])
                            for i in range(per_pass)],
            "probes_s": self.probes,
            "answers": self.answers,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest": self.digest.hexdigest(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": self.layers,
        }


# -- workloads ----------------------------------------------------------------


def _answer_problem(answer: Any) -> Optional[str]:
    """Why a served answer is wrong, or ``None`` when it is fine."""
    stats = answer.answer.get("stats", {})
    if answer.source == "error":
        return f"error answer for {json.dumps(answer.query)}: {stats.get('error')}"
    if answer.query["kind"] in ("stencil", "conv"):
        if stats["exhibit"].get("bit_identical") is not True:
            return f"{answer.query['kind']} not bit-identical: {answer.key}"
    return None


def serve_cold(inputs: Dict[str, Any], s: Sample, args: argparse.Namespace,
               ) -> Dict[str, Any]:
    """One ``QueryEngine.run_batch`` on a fresh store through the pool."""
    from repro.gemm.pool import WorkerPool
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import QueryEngine, ResultStore

    queries = inputs["queries"]
    registry = MetricsRegistry() if s.tracer is not None else None
    store = ResultStore(Path(args.workdir) / "store")
    pool = WorkerPool(args.workers)
    engine = QueryEngine(store, pool=pool, metrics=registry)
    s.attempted = len(queries)
    s.begin()
    try:
        answers = s.request(engine.run_batch, queries)
    finally:
        s.end()
        pool.close()
    s.answers = len(answers)
    for answer in answers:
        s.output(answer.to_json_line())
        problem = _answer_problem(answer)
        s.check(problem is None, problem or "")
    unique = len({a.key for a in answers})
    expected = {"queries": len(queries), "hits": 0, "computed": unique,
                "deduped": len(queries) - unique, "errors": 0}
    s.check(engine.stats.as_dict() == expected,
            f"ServeStats {engine.stats.as_dict()} != {expected}", 0)
    return {"registry": registry, "engine": engine, "store": store,
            "pool": pool}


def serve_warm(inputs: Dict[str, Any], s: Sample, args: argparse.Namespace,
               ) -> Dict[str, Any]:
    """Fill a store with the universe, then serve single-query requests.

    The request stream is sent several times: warm serving computes
    nothing, so no in-process memo makes a later pass cheaper than the
    first, and the repeats give each request enough samples to see past
    load from outside the benchmark.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import QueryEngine, ResultStore

    universe = inputs["universe"]
    store = ResultStore(Path(args.workdir) / "store")
    stored: Dict[str, str] = {}
    for answer in QueryEngine(store).run_batch(universe):
        s.check(answer.source == "computed",
                f"universe query not computed: {_answer_problem(answer)}", 0)
        stored[answer.key] = answer.to_json_line()
    s.check(len(stored) == len(universe), "universe keys are not distinct", 0)
    registry = MetricsRegistry() if s.tracer is not None else None
    engine = QueryEngine(store, metrics=registry)
    docs = [universe[i] for i in inputs["stream"]]
    s.passes = inputs["passes"]
    s.attempted = len(docs) * s.passes
    s.begin()
    try:
        for n in range(s.passes):
            if n:
                s.mark()
            for doc in docs:
                answer = s.request(engine.query, doc)
                line = answer.to_json_line()
                s.output(line)
                s.check(answer.source == "hit"
                        and stored.get(answer.key) == line,
                        f"warm answer differs from the stored one: "
                        f"{answer.key}")
    finally:
        s.end()
    s.answers = len(docs)
    return {"registry": registry, "engine": engine, "store": store}


def tune_cold(inputs: Dict[str, Any], s: Sample, args: argparse.Namespace,
              ) -> Dict[str, Any]:
    """``tune_search`` on every preset in turn, inline, on a fresh store."""
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import ResultStore
    from repro.tune import tune_search

    store = ResultStore(Path(args.workdir) / "store")
    registry = MetricsRegistry() if s.tracer is not None else None
    results = []
    s.attempted = len(inputs["presets"])
    s.begin()
    try:
        for n, preset in enumerate(inputs["presets"]):
            if n:
                s.mark()
            results.append(s.request(
                tune_search, machine=preset, max_tiles=inputs["max_tiles"],
                seed=inputs["seed"], store=store, metrics=registry,
            ))
    finally:
        s.end()
    for preset, result in zip(inputs["presets"], results):
        s.output(json.dumps(result, sort_keys=True))
        memo = result["memo"]
        s.check(memo["analytic"]["hits"] == 0 and memo["timed"]["hits"] == 0,
                f"{preset}: cold search hit the memo: {memo}")
        if preset == "xgene":
            win = result["winner"]["candidate"]
            s.check((win["mr"], win["nr"], win["kc"]) == (8, 6, 512),
                    f"xgene winner is {win}, not 8x6 at kc=512")
    s.answers = len(results)
    return {"registry": registry, "store": store, "results": results}


def _table7() -> Dict[tuple, float]:
    """``(kernel, threads) -> miss rate %`` from the committed Table VII."""
    rows = {}
    for line in TABLE7.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 4 and cells[0] in TABLE7_KERNELS:
            rows[(cells[0], int(cells[1]))] = float(cells[2])
    return rows


def sweep_replacement(inputs: Dict[str, Any], s: Sample,
                      args: argparse.Namespace) -> Dict[str, Any]:
    """The Table VII loop under every replacement policy in turn."""
    from repro.arch.presets import XGENE
    from repro.blocking.cache_blocking import solve_cache_blocking
    from repro.kernels.kernel_spec import PAPER_KERNELS
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.replacement import ReplacementPolicy
    from repro.sim.gebp_cachesim import simulate_gebp_cache
    from repro.verify.machines import with_replacement

    expected = _table7()
    seed = inputs["seed"]
    specs = {spec.name: spec for spec in PAPER_KERNELS}
    points = [
        (policy, with_replacement(XGENE, ReplacementPolicy(policy)), name,
         threads)
        for policy in inputs["policies"]
        for name in TABLE7_KERNELS
        for threads in TABLE7_THREADS
    ]

    def point(chip, spec, threads):
        blocking = solve_cache_blocking(chip, spec.mr, spec.nr,
                                        threads=threads)
        hierarchy = MemoryHierarchy(chip, seed=seed)
        return hierarchy, simulate_gebp_cache(spec, blocking, chip=chip,
                                              hierarchy=hierarchy)

    s.attempted = len(points)
    s.begin()
    try:
        for n, (policy, chip, name, threads) in enumerate(points):
            if n:
                s.mark()
            hierarchy, result = s.request(point, chip, specs[name], threads)
            accesses = sum(c.stats.accesses
                           for c in hierarchy.all_caches().values())
            s.output(json.dumps([policy, name, threads, vars(result),
                                 accesses,
                                 hierarchy.batched_fallback_accesses()]))
            if policy == "lru":
                rate = round(result.l1_load_miss_rate * 100, 3)
                s.check(rate == expected.get((name, threads)),
                        f"LRU {name} x{threads}: miss rate {rate}% != "
                        f"committed {expected.get((name, threads))}%")
            s.answers += 1
    finally:
        s.end()
    return {}


RUNNERS = {
    layers.SERVE_COLD: serve_cold,
    layers.SERVE_WARM: serve_warm,
    layers.TUNE_COLD: tune_cold,
    layers.SWEEP: sweep_replacement,
}


# -- per-layer harvest --------------------------------------------------------


def harvest(tracer: Any, s: Sample, state: Dict[str, Any],
            workers: int) -> Dict[str, float]:
    """Per-layer numbers of a traced sample (see ``layers``)."""
    from tracer import POOL_JOB, account

    self_ns, other_ns = account(tracer.spans, s.windows)
    wall_ns = sum(end - start for start, end in s.windows)
    calls = dict.fromkeys(layers.SPANS, 0)
    self_s = dict.fromkeys(layers.SPANS, 0.0)
    parent_of = {}
    busy_ns = 0
    for sid, parent, name, start, end in tracer.spans:
        parent_of[sid] = parent
        calls[name] += 1
        self_s[name] += self_ns.get(sid, 0.0) / 1e9
        if name == POOL_JOB:
            busy_ns += end - start

    # serve.kind.<kind>: wall share of compute_answer spans of that kind,
    # their descendants included.
    kind_of: Dict[int, Optional[str]] = {0: None}

    def kind(sid: int) -> Optional[str]:
        chain = []
        while sid not in kind_of:
            if sid in tracer.kinds:
                kind_of[sid] = tracer.kinds[sid]
                break
            chain.append(sid)
            sid = parent_of.get(sid, 0)
        for link in chain:
            kind_of[link] = kind_of[sid]
        return kind_of[sid]

    by_kind = dict.fromkeys(layers.KINDS, 0.0)
    for sid, share in self_ns.items():
        k = kind(sid)
        if k is not None:
            by_kind[k] += share / 1e9

    out: Dict[str, float] = {}
    for span in layers.SPANS:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s[span]
    counts = tracer.counts
    accesses = counts["memory.accesses"]
    cycles = counts["pipeline.cycles"]
    scoreboard_s = self_s["pipeline.run"] + self_s["pipeline.run_compiled"]
    pool = state.get("pool")
    out.update({
        "sim.gebp_traces.records": counts["sim.gebp_traces.records"],
        "memory.accesses": accesses,
        "memory.fallback_accesses": counts["memory.fallback_accesses"],
        "memory.fallback_ratio":
            counts["memory.fallback_accesses"] / accesses if accesses else 0.0,
        "pipeline.cycles": cycles,
        "pipeline.host_ns_per_cycle":
            scoreboard_s * 1e9 / cycles if cycles else 0.0,
        "gemm.pool.jobs": pool.jobs_dispatched if pool is not None else 0,
        "gemm.pool.queue_wait_s": counts["gemm.pool.queue_wait_ns"] / 1e9,
        "gemm.pool.busy_s": busy_ns / 1e9,
        "gemm.pool.idle_ratio":
            1 - busy_ns / (workers * wall_ns) if pool is not None else 0.0,
    })
    for k, seconds in by_kind.items():
        out[f"serve.kind.{k}.self_s"] = seconds

    registry = state.get("registry")
    counters = registry.counters if registry is not None else {}
    for name in ("hits", "computed", "deduped", "errors"):
        out[f"serve.{name}"] = counters.get(f"serve.{name}", 0)
    engine = state.get("engine")
    queries = engine.stats.queries if engine is not None else 0
    out["serve.hit_ratio"] = out["serve.hits"] / queries if queries else 0.0
    store = state.get("store")
    out["serve.store_bytes"] = store.bytes_held() if store is not None else 0

    results = state.get("results", [])
    enumerated = sum(r["space"]["enumerated"] for r in results)
    timed = sum(r["space"]["timed_variants"] for r in results)
    out.update({
        "tune.candidates": enumerated,
        "tune.timed_variants": timed,
        "tune.prune_ratio": enumerated / timed if timed else 0.0,
        # Evaluations computed because the memo missed, as counted by the
        # tune_search metrics registry.
        "tune.memo_misses": (counters.get("tune.analytic_evals", 0)
                             + counters.get("tune.timed_evals", 0)),
        "trace.wall_s": wall_ns / 1e9,
        "trace.other_self_s": other_ns / 1e9,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    inputs = json.loads(args.inputs.read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sample = Sample(args.launched, tracer)
    state = RUNNERS[args.workload](inputs, sample, args)
    if tracer is not None:
        sample.layers = harvest(tracer, sample, state, args.workers)
    print(json.dumps(sample.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
