"""Tests of the benchmark itself: inputs, tracer, accounting, layout check.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The traced-workload test runs every workload once with tracing on (about
half a minute) and checks each boundary's prediction in ``layers.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
from tracer import account  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _sample(tmp_path: Path, workload: str, seed: int, trace: int,
            workers: int = 2) -> dict:
    """Run one ``sample.py`` process and return its JSON result."""
    doc = tmp_path / f"{workload}-{seed}.json"
    doc.write_text(json.dumps(inputs.make(workload, seed)))
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--workload", workload,
         "--inputs", str(doc), "--trace", str(trace),
         "--workdir", str(workdir), "--workers", str(workers),
         "--launched", repr(time.monotonic())],
        env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and not result["problems"], result["problems"]
    return result


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_inputs_repeat_across_processes_and_hash_seeds(workload):
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
            f"print(json.dumps(inputs.make({workload!r}, 7), sort_keys=True))")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
            env=dict(ENV, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == inputs.make(workload, 7)


def test_timed_kc_is_whole_bodies_and_queries_are_valid():
    from repro.kernels.variants import get_variant
    from repro.serve import query_key

    for seed in range(3):
        queries = (inputs.make(layers.SERVE_COLD, seed)["queries"]
                   + inputs.make(layers.SERVE_WARM, seed)["universe"])
        for query in queries:
            query_key(query)  # raises on a malformed query
            if query["kind"] == "timed":
                unroll = get_variant(query["kernel"]).plan.unroll
                assert query["kc"] % unroll == 0, query
        kinds = {q["kind"] for q in queries}
        assert kinds == set(layers.KINDS)


def test_cold_batch_digest_does_not_depend_on_pool_size(tmp_path):
    one = _sample(tmp_path, layers.SERVE_COLD, 3, trace=0, workers=1)
    two = _sample(tmp_path, layers.SERVE_COLD, 3, trace=0, workers=2)
    assert one["digest"] == two["digest"]
    # The probe blocks that open and close the pass, outside its windows.
    assert len(one["probes_s"]) == 2 * probe.BRACKET


def test_probe_scale_reports_times_at_nominal_speed():
    slow = [2 * probe.PROBE_NOMINAL_S] * 5 + [100.0]
    assert probe.scale(slow) == pytest.approx(0.5)
    floors = [2 * probe.FLOOR_NOMINAL_S] * 20 + [100.0] * 5
    assert probe.scale(floors, floor=True) == pytest.approx(0.5)
    assert len(probe.block(3)) == 3


def test_account_splits_wall_time_among_innermost_spans():
    # Span 1 [0, 100) on the main thread; its children 2 [10, 50) and,
    # on a worker, 3 [20, 80). 3's child 4 [30, 40).
    spans = [(1, 0, "a", 0, 100), (2, 1, "b", 10, 50), (3, 1, "c", 20, 80),
             (4, 3, "d", 30, 40)]
    self_ns, other = account(spans, [(0, 100), (100, 120)])
    # 1 alone: [0,10) + [80,100); 2 alone: [10,20); 2 and 3 share
    # [20,30) and [40,50); 2 and 4 share [30,40); 3 alone: [50,80).
    assert self_ns == {1: 30, 2: 25, 3: 40, 4: 5}
    assert other == 20
    assert sum(self_ns.values()) + other == 120


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {w: _sample(tmp, w, 0, trace=1)["layers"]
            for w in layers.WORKLOADS}


@pytest.mark.parametrize("boundary", layers.BOUNDARIES,
                         ids=[b.span for b in layers.BOUNDARIES])
def test_every_boundary_fires_where_predicted(traced, boundary):
    calls = {w: traced[w][f"{boundary.span}.calls"] for w in layers.WORKLOADS}
    assert calls[boundary.most] > 0, calls
    for workload in boundary.none:
        assert calls[workload] == 0, calls


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_self_times_account_for_traced_wall_time(traced, workload):
    values = traced[workload]
    covered = sum(values[f"{span}.self_s"] for span in layers.SPANS)
    total = covered + values["trace.other_self_s"]
    assert total == pytest.approx(values["trace.wall_s"], rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
