#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 0 --seconds 28 --trace 0

Workloads (the ``why`` of each is in BENCHMARK.json):

- ``serve-cold``: one ``QueryEngine.run_batch`` of a seeded 49-query batch
  (45 distinct, all five kinds, all three presets) on a fresh store
  through a ``WorkerPool`` of one worker per available CPU; one closed-loop
  client sending one batch, the ``repro query --batch`` path.
- ``serve-warm``: a store filled during set-up with a seeded 189-key
  universe; one closed-loop client then sends a stream of 5k single-query
  requests, drawn Zipf-skewed from it, 6 times over.
- ``tune-cold``: ``tune_search`` (8 register tiles) on each preset in
  turn, inline, on a fresh store.
- ``sweep-replacement``: the Table VII loop (8x6/8x4/4x4 x 1/8 threads on
  X-Gene) through ``simulate_gebp_cache`` with a caller-owned
  ``MemoryHierarchy``, with every cache LRU, then PLRU, then seeded RANDOM.

The seed is turned into the workload's inputs here (see ``inputs.py``) and
written to a file the program's process reads. Each sample then runs in a
fresh interpreter (``sample.py`` says why); samples repeat while
another one, as long as the mean so far, ends within ``--seconds``. A
*request* is one timed call into the program: the batch (serve-cold),
one query (serve-warm), one preset's search (tune-cold), one sweep
point (sweep-replacement).

End-to-end metrics (``--trace 0``). Every sample sends the same
requests, so each request's time is its fastest over the run's samples
(and, for serve-warm, over the passes of each sample). Each sample's
times are first scaled to a nominal host speed by the probe blocks run
all through it (``probe.py``): the host is shared and its speed drifts
by up to 1.7x for longer than a run. The factor compares the probe's
median with its nominal one, except for serve-warm's sub-millisecond
requests, whose fastest repeats are floors and are matched by the
probe's floor.

- ``queries_per_s``: answers of one pass (queries, tuned presets, sweep
  points) divided by ``pass_s``.
- ``latency_p50_ms``, ``latency_p99_ms``: percentiles of request time over
  the requests of a pass (p99 is near the maximum where a pass has fewer
  than 1000 requests: serve-cold has one, tune-cold three, the sweep 18).
- ``pass_s``: request time of one pass over the whole input, the sum of
  its request times (for tune-cold, the time to tuned answers for every
  preset).
- ``setup_s``: median over samples of interpreter start, imports, pool
  start and store filling, up to the first request.
- ``peak_rss_mb``: median over samples of a sample process's peak RSS.

Failed operations (error answers, exceptions, failed checks) are the
result line's ``failed`` out of ``attempted``. Outputs are checked before
any number is reported: every sample's output digest must match the
others (and, for seed 0, ``expected_digests.json``), and each workload's
invariants must hold (see ``sample.py``). A failed check prints
``"correct": false`` and exits 1.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``layers.py`` (medians over the traced samples) and
``trace.overhead_ratio``, traced over untraced ``pass_s``, each scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probe  # noqa: E402

#: The seed whose output digests are committed in expected_digests.json.
DIGEST_SEED = 0

#: Scratch space (stores, inputs) inside the checkout; removed on exit.
SCRATCH = ".perfbench_tmp"

#: A run must end within 180 s: a sample still running this many seconds
#: after the run started is stopped and counted as failed.
DEADLINE_S = 170

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _room_for_more(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round of samples ends within ``seconds`` of start.

    A round is one sample (two with ``--trace 1``); its length is
    estimated as the mean of the rounds so far.
    """
    elapsed = time.monotonic() - start
    return elapsed + elapsed / rounds <= seconds


def _run_sample(args, root: Path, inputs: Path, workdir: Path,
                traced: bool, timeout: float) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    sample_dir = Path(tempfile.mkdtemp(prefix="sample-", dir=workdir))
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", args.workload, "--inputs", str(inputs),
        "--trace", "1" if traced else "0",
        "--workdir", str(sample_dir),
        "--workers", str(len(os.sched_getaffinity(0))),
    ]
    try:
        launched = time.monotonic()
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)], env=env, cwd=root,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"sample stopped after {timeout:.0f} s"}
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    if proc.returncode != 0:
        return {"crashed": f"sample exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def _request_times(samples: List[Dict[str, Any]]) -> List[float]:
    """Each request's fastest time (s) over the samples of the run.

    Every sample sends the same requests in the same order and the
    program's work is deterministic, so request ``i`` repeats the same
    work once per sample; a slower repeat measures load from outside the
    benchmark (the host is shared), not the program.
    """
    return [min(times) for times in zip(*(s["latencies_s"] for s in samples))]


def _at_nominal_speed(workload: str,
                      samples: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The samples with their times scaled by their own probes.

    serve-warm's requests take a tenth of a millisecond and each one's
    fastest of many repeats is a floor, matched by the probe's floor;
    every other request, and every set-up, lasts a tenth of a second or
    more and is matched by the probe's median (see ``probe.py``).
    """
    scaled = []
    for s in samples:
        k_setup = probe.scale(s["probes_s"])
        k = (probe.scale(s["probes_s"], floor=True)
             if workload == layers.SERVE_WARM else k_setup)
        scaled.append(dict(s, setup_s=s["setup_s"] * k_setup, scale=k,
                           latencies_s=[t * k for t in s["latencies_s"]]))
    return scaled


def _metrics(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    times = _request_times(samples)
    pass_s = sum(times)
    latencies_ms = [t * 1e3 for t in times]
    return {
        "queries_per_s": samples[0]["answers"] / pass_s,
        "latency_p50_ms": _percentile(latencies_ms, 50),
        "latency_p99_ms": _percentile(latencies_ms, 99),
        "pass_s": pass_s,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
    }


def _layer_metrics(workload: str, untraced: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]]) -> Dict[str, float]:
    values = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name, _, _ in layers.per_layer_metrics()
        if name != "trace.overhead_ratio"
    }
    values["trace.overhead_ratio"] = (
        _metrics(_at_nominal_speed(workload, traced))["pass_s"]
        / _metrics(_at_nominal_speed(workload, untraced))["pass_s"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; the last stdout line is "
                    "the JSON result.")
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import inputs as workload_inputs

    scratch = root / SCRATCH
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(
            workload_inputs.make(args.workload, args.seed), sort_keys=True))
        modes = (False, True) if args.trace else (False,)
        samples: List[Dict[str, Any]] = []
        start = time.monotonic()
        while not samples or _room_for_more(start, len(samples) // len(modes),
                                            args.seconds):
            for traced in modes:
                sample = _run_sample(
                    args, root, inputs_path, workdir, traced,
                    timeout=started + DEADLINE_S - time.monotonic())
                samples.append(sample)
                print(f"sample {len(samples)} (traced={traced}): "
                      f"{sample.get('crashed') or 'ok'}", file=sys.stderr)
            if any("crashed" in s for s in samples):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = [s["crashed"] for s in samples if "crashed" in s]
    finished = [s for s in samples if "crashed" not in s]
    for s in finished:
        problems.extend(s["problems"])
    digests = sorted({s["digest"] for s in finished})
    if len(digests) > 1:
        problems.append(f"samples of one seed disagree: digests {digests}")
    expected = json.loads((HERE / "expected_digests.json").read_text())
    if args.seed == DIGEST_SEED and digests != [expected[args.workload]]:
        problems.append(f"seed {DIGEST_SEED} digest {digests} != committed "
                        f"{expected[args.workload]}")
    attempted = sum(s["attempted"] for s in finished)
    failed = sum(s["failed"] for s in finished) + len(samples) - len(finished)
    correct = not problems and failed == 0
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"digest {args.workload} seed {args.seed}: {' '.join(digests)}",
          file=sys.stderr)

    metrics: Dict[str, Dict[str, Any]] = {}
    if correct:
        untraced = [s for s in finished if not s["traced"]]
        if args.trace:
            units = {n: u for n, u, _ in layers.per_layer_metrics()}
            values = _layer_metrics(
                args.workload, untraced, [s for s in finished if s["traced"]])
        else:
            units = END_TO_END
            scaled = _at_nominal_speed(args.workload, untraced)
            values = _metrics(scaled)
            scales = " ".join(f"{s['scale']:.4f}" for s in scaled)
            print(f"host-speed scale of each sample's requests: {scales}; "
                  f"as measured:", file=sys.stderr)
            for name, value in _metrics(untraced).items():
                print(f"  {name:42s} {value:>16.6g} {units[name]}",
                      file=sys.stderr)
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:44s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
