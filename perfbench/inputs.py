"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the workload seed. Randomness comes
only from :class:`random.Random` seeded with a string (hashed with SHA-512
by the standard library), never from ``hash()``, so the same seed gives
byte-identical inputs in every process whatever ``PYTHONHASHSEED`` is.

The *structure* of each input is fixed — how many queries of each kind,
on which machine preset, with which kernel and problem shape — because
that is what sets the cost of a run. The seed draws everything that does
not change the cost class: operand seeds, cheap shape parameters of the
analytic and timed kinds, order and which queries repeat.
Runs with different seeds therefore measure the same program on the same
amount of work, and their figures can be compared.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Sequence

#: Registered machine presets (repro.arch.presets.PRESETS), in order.
PRESETS = ("xgene", "mobile", "big_little")

#: Production kernels of the paper: every query kind with a kernel uses them.
GEMM_KERNELS = ("OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4")

#: By-element kernels the timed kind runs (ATLAS-5x5 adds an odd tile).
TIMED_KERNELS = GEMM_KERNELS + ("ATLAS-5x5",)

#: Analytic problem sizes and thread counts (every preset has >= 4 cores).
SIZES = (128, 256, 384, 512, 768, 1024)
THREADS = (1, 2, 4)

#: Unrolled kernel bodies per timed panel; kc = unroll * bodies.
BODIES = range(2, 7)

#: Cachesim panel slices; each preset's two cachesim queries take two.
NC_SLICES = (4, 8, 12)

#: Stencil and conv shapes of the cold batch (small, fixed cost).
STENCIL = {"height": 16, "width": 256, "radius": 1, "iterations": 2}
CONV = {"cin": 1, "height": 18, "width": 18, "kh": 3, "kw": 3, "filters": 8}

#: Share of the cold batch that repeats an earlier query.
REPEAT_SHARE = 0.1

#: tune-cold: register tiles searched per preset (the CLI default is 4).
TUNE_MAX_TILES = 8

#: sweep-replacement: replacement policies, in run order. LRU first: it
#: pays the trace synthesis the other two passes reuse.
POLICIES = ("lru", "plru", "random")

#: serve-warm: single-query requests in the stream, times the stream is
#: sent in one sample, and the Zipf exponent.
WARM_REQUESTS = 5_000
WARM_PASSES = 6
ZIPF_S = 1.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def kc_for(kernel: str, bodies: int) -> int:
    """A timed ``kc`` that is a whole number of unrolled kernel bodies.

    A hand-picked ``kc`` (say 32 on the 8x4 kernel, whose unroll is 7)
    is rejected by the timed engine and served as an error answer.
    """
    from repro.kernels.variants import get_variant

    return get_variant(kernel).plan.unroll * bodies


def _simulate(rng: random.Random, machine: str, kernel: str) -> Dict[str, Any]:
    return {
        "kind": "simulate", "machine": machine, "kernel": kernel,
        "m": rng.choice(SIZES), "n": rng.choice(SIZES), "k": rng.choice(SIZES),
        "threads": rng.choice(THREADS),
        "parallel_axis": rng.choice(("m", "n")),
    }


def _timed(rng: random.Random, machine: str, kernel: str) -> Dict[str, Any]:
    return {
        "kind": "timed", "machine": machine, "kernel": kernel,
        "kc": kc_for(kernel, rng.choice(BODIES)),
        "hw_late": rng.choice((0.0, 0.25, 0.5)),
        "seed": rng.randrange(1 << 16),
    }


def _distinct(queries: List[Dict[str, Any]], make) -> None:
    """Append ``make()`` results until one is not already in ``queries``."""
    seen = {json.dumps(q, sort_keys=True) for q in queries}
    while True:
        query = make()
        if json.dumps(query, sort_keys=True) not in seen:
            queries.append(query)
            return


def _unique_seeds(rng: random.Random, count: int) -> List[int]:
    return rng.sample(range(1, 1 << 16), count)


def cold_batch(seed: int) -> List[Dict[str, Any]]:
    """The serve-cold batch: 42 distinct queries plus about 10% repeats.

    Per preset: 6 simulate, 4 timed (one per timed kernel), 2 cachesim
    (two of the three production kernels and panel slices, rotating with
    the preset), one stencil and one conv. Cachesim queries carry distinct ``seed`` fields
    so no two share a warm-state memo entry, which keeps the walk's counts
    independent of the order the pool's workers happen to run them in.
    """
    rng = _rng("serve-cold", seed)
    queries: List[Dict[str, Any]] = []
    cachesim_seeds = iter(_unique_seeds(rng, 2 * len(PRESETS) + 1))
    workload_seeds = iter(_unique_seeds(rng, 2 * len(PRESETS)))
    for p, machine in enumerate(PRESETS):
        for i in range(6):
            kernel = TIMED_KERNELS[i % len(TIMED_KERNELS)]
            _distinct(queries, lambda: _simulate(rng, machine, kernel))
        for kernel in TIMED_KERNELS:
            _distinct(queries, lambda: _timed(rng, machine, kernel))
        for j in range(2):
            queries.append({
                "kind": "cachesim", "machine": machine,
                "kernel": GEMM_KERNELS[(p + j) % len(GEMM_KERNELS)],
                "nc_slice": NC_SLICES[(p + 2 * j) % len(NC_SLICES)],
                "seed": next(cachesim_seeds),
            })
        queries.append(dict(STENCIL, kind="stencil", machine=machine,
                            seed=next(workload_seeds)))
        queries.append(dict(CONV, kind="conv", machine=machine,
                            seed=next(workload_seeds)))
    # The only caller of the scoreboard's reference engine
    # (ScoreboardCore.run): one timed query on the interpreted path.
    _distinct(queries, lambda: dict(_timed(rng, "mobile", "OpenBLAS-4x4"),
                                    engine="interpreted"))
    rng.shuffle(queries)
    repeats = rng.sample(queries, round(REPEAT_SHARE * len(queries)))
    for query in repeats:
        queries.insert(rng.randrange(len(queries) + 1), dict(query))
    # Two cachesim queries sharing one warm-state memo entry, first and
    # last in the batch: the pool has finished the first long before it
    # starts the last, which then restores the first one's snapshot.
    pair = {"kind": "cachesim", "machine": "xgene", "kernel": GEMM_KERNELS[1],
            "nc_slice": NC_SLICES[1], "seed": next(cachesim_seeds)}
    return [pair] + queries + [dict(pair, engine="batched")]


def warm_universe(seed: int) -> List[Dict[str, Any]]:
    """The serve-warm key universe (189 distinct queries), hottest first.

    Per preset: 42 simulate, 16 timed, 1 cachesim, 2 stencil, 2 conv. The
    list is in Zipf rank order. Which kind sits at which rank follows a
    fixed interleave of the kinds in proportion to their counts, so the
    hot keys have the same answer sizes for every seed; the seed picks
    which query of a kind takes each of that kind's ranks.
    """
    rng = _rng("serve-warm", seed)
    by_kind: Dict[str, List[Dict[str, Any]]] = {
        "simulate": [], "timed": [], "cachesim": [], "stencil": [], "conv": [],
    }
    for machine in PRESETS:
        for i in range(42):
            kernel = TIMED_KERNELS[i % len(TIMED_KERNELS)]
            _distinct(by_kind["simulate"],
                      lambda: _simulate(rng, machine, kernel))
        for i in range(16):
            kernel = TIMED_KERNELS[i % len(TIMED_KERNELS)]
            _distinct(by_kind["timed"], lambda: _timed(rng, machine, kernel))
        by_kind["cachesim"].append({
            "kind": "cachesim", "machine": machine,
            "kernel": GEMM_KERNELS[PRESETS.index(machine)],
            "nc_slice": 4, "seed": rng.randrange(1 << 16),
        })
        for _ in range(2):
            small = {"height": 8, "width": 128, "seed": rng.randrange(1 << 16)}
            by_kind["stencil"].append(dict(small, kind="stencil",
                                           machine=machine))
            by_kind["conv"].append({
                "kind": "conv", "machine": machine, "cin": 1, "height": 10,
                "width": 10, "filters": 4, "seed": rng.randrange(1 << 16),
            })
    for bucket in by_kind.values():
        rng.shuffle(bucket)
    return _interleave(list(by_kind.values()))


def _interleave(buckets: Sequence[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Merge buckets so each kind is spread evenly over the ranks.

    Deterministic and seed-free: element ``i`` of a bucket of size ``n``
    sits at position ``(i + 0.5) / n`` and the merge orders by position
    (bucket index breaks ties).
    """
    keyed = [
        ((i + 0.5) / len(bucket), b, item)
        for b, bucket in enumerate(buckets)
        for i, item in enumerate(bucket)
    ]
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def warm_stream(seed: int, universe_size: int) -> List[int]:
    """Zipf-skewed request indices into the warm universe (rank order)."""
    rng = _rng("serve-warm-stream", seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(universe_size)]
    return rng.choices(range(universe_size), weights=weights,
                       k=WARM_REQUESTS)


def make(workload: str, seed: int) -> Dict[str, Any]:
    """The input document one sample of ``workload`` receives.

    Built once per run by the parent process and handed to each sample
    as a file: deriving a timed ``kc`` runs the kernel generator, and
    doing that inside the sample would warm the very memos a cold
    workload is meant to pay for.
    """
    if workload == "serve-cold":
        return {"queries": cold_batch(seed)}
    if workload == "serve-warm":
        universe = warm_universe(seed)
        return {"universe": universe, "passes": WARM_PASSES,
                "stream": warm_stream(seed, len(universe))}
    if workload == "tune-cold":
        return {"presets": list(PRESETS), "max_tiles": TUNE_MAX_TILES,
                "seed": seed}
    if workload == "sweep-replacement":
        return {"policies": list(POLICIES), "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")
