"""Extension — empirical auto-tuning (the paper's future-work item).

The two-stage :func:`repro.tune.tune_search` — cost-model scoring of every
blocking class, then compiled timed runs of the surviving code shapes —
must land on the analytic derivation, empirically confirming the
theory-guided choice of 8x6 / 512x56x1920.
"""

from conftest import save_report

from repro.analysis import format_table
from repro.arch import XGENE
from repro.blocking import solve_cache_blocking
from repro.obs import MetricsRegistry
from repro.tune import tune_search


def test_ablation_autotune(benchmark, report_dir):
    def search():
        metrics = MetricsRegistry()
        result = tune_search(
            "xgene", threads=1, problem_size=2048, max_tiles=3,
            metrics=metrics,
        )
        return result, metrics

    result, metrics = benchmark(search)
    rows = []
    for rank, entry in enumerate(result["top"], start=1):
        c = entry["candidate"]
        rows.append([
            rank,
            f"{c['mr']}x{c['nr']}",
            f"{c['rotation']}/{c['schedule']}",
            f"{c['kc']}x{c['mc']}x{c['nc']}",
            entry["analytic"]["efficiency"] * 100,
            entry["timed"]["efficiency"] * 100,
        ])
    space = result["space"]
    text = format_table(
        ["rank", "tile", "rotation/schedule", "kc x mc x nc",
         "analytic %", "timed %"],
        rows,
        title="Auto-tuning ablation: two-stage kernel and block-size search "
              "(best blocking per code shape)",
    ) + (
        f"\n{space['enumerated']} candidates, "
        f"{space['analytic_classes']} analytic classes scored, "
        f"{space['timed_variants']} code shapes timed"
    )
    save_report(report_dir, "ablation_autotune", text)

    analytic = solve_cache_blocking(XGENE, 8, 6, threads=1)
    winner = result["winner"]["candidate"]
    assert (winner["mr"], winner["nr"]) == (8, 6)
    assert (winner["kc"], winner["mc"], winner["nc"]) == (
        analytic.kc,
        analytic.mc,
        analytic.nc,
    )
    # Cold search: every analytic class is scored exactly once.
    counters = metrics.as_dict()["counters"]
    assert counters["tune.analytic_evals"] == space["analytic_classes"]
