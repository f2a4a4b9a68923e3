"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.obs import RunReport, validate_report

CASES_DIR = Path(__file__).parent / "cases"


def _cheap_argv(tmp_path):
    """A quick argv for each subcommand of the command table."""
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        json.dumps({"kind": "simulate", "m": 64, "n": 64, "k": 64}) + "\n"
    )
    report = tmp_path / "blocks.json"
    RunReport(command="blocks", stats={"blocking": {"kc": 512}}).write(
        str(report)
    )
    return {
        "blocks": [],
        "kernel": ["--kc", "8"],
        "simulate": ["--size", "256"],
        "microbench": [],
        "experiments": ["--out", str(tmp_path / "exhibits"),
                        "--stop", "256"],
        "pool": ["--threads", "2", "--size", "16", "--reps", "1"],
        "cachesim": ["--kernel", "OpenBLAS-4x4", "--nc-slice", "4"],
        "timed": ["--kc", "16"],
        "sweep": ["--stop", "256"],
        "verify": ["--replay", str(sorted(CASES_DIR.glob("*.json"))[0])],
        "query": ["--batch", str(batch), "--cache-dir",
                  str(tmp_path / "cache"), "--threads", "1"],
        "serve": ["--warm", "mobile", "--cache-dir",
                  str(tmp_path / "cache"), "--threads", "1"],
        "tune": ["--smoke", "--cache-dir", "", "--max-tiles", "1",
                 "--top-k", "1", "--radius", "0", "--bodies", "1"],
        "asym": ["--smoke"],
        "stencil": ["--height", "12", "--width", "64", "--iterations", "1"],
        "conv": ["--cin", "1", "--height", "10", "--width", "10",
                 "--filters", "4"],
        "report": ["--diff", str(report), str(report)],
    }


@pytest.mark.parametrize("command", [c.name for c in COMMANDS])
def test_every_command_writes_its_json_report(command, tmp_path, capsys):
    argv = _cheap_argv(tmp_path).get(command)
    if argv is None:
        pytest.fail(f"no cheap argv for command table entry {command!r}")
    out = tmp_path / "out.json"
    assert main([command, *argv, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    if command == "report":
        # report --diff --json writes its findings, not a RunReport.
        assert doc["findings"] == [] and doc["checked"] > 0
    else:
        assert validate_report(doc) == []
        assert doc["command"] == command
    assert f"wrote {out}" in capsys.readouterr().out


def _bad_inputs():
    return {
        "sweep-step-0": ["sweep", "--step", "0"],
        "experiments-step-0": ["experiments", "--out", "{tmp}/x",
                               "--step", "0"],
        "sweep-empty-range": ["sweep", "--stop", "100"],
        "report-missing-file": ["report", "{tmp}/missing.json"],
        "report-not-json": ["report", "{tmp}/not-json.txt"],
        "report-not-object": ["report", "{tmp}/list.json"],
        "report-diff-missing": ["report", "--diff", "{tmp}/a", "{tmp}/b"],
        "cachesim-nc-slice-0": ["cachesim", "--nc-slice", "0"],
        "tune-pool-0": ["tune", "--smoke", "--cache-dir", "",
                        "--pool", "0"],
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_bad_input_is_a_clean_error(case, tmp_path, capsys):
    (tmp_path / "not-json.txt").write_text("not json\n")
    (tmp_path / "list.json").write_text("[]\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _bad_inputs()[case]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestCli:
    def test_blocks_default(self, capsys):
        assert main(["blocks"]) == 0
        out = capsys.readouterr().out
        assert "8x6" in out
        assert "512x56x1920" in out

    def test_blocks_eight_threads(self, capsys):
        assert main(["blocks", "--threads", "8"]) == 0
        assert "512x24x1792" in capsys.readouterr().out

    def test_blocks_explicit_tile(self, capsys):
        assert main(["blocks", "--mr", "8", "--nr", "4"]) == 0
        assert "768x32x1280" in capsys.readouterr().out

    def test_kernel_emits_assembly(self, capsys):
        assert main(["kernel", "--variant", "OpenBLAS-8x6"]) == 0
        out = capsys.readouterr().out
        assert "fmla v" in out
        assert "ldr q" in out
        assert "7:24" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--size", "512", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "Gflops" in out
        assert "blocking:" in out

    def test_simulate_rectangular(self, capsys):
        assert main(["simulate", "-m", "512", "-n", "256", "-k", "128"]) == 0
        assert "512x256x128" in capsys.readouterr().out

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "7:24" in out
        assert "91.5" in out

    def test_cachesim_checks_engines_agree(self, capsys):
        assert main(["cachesim", "--nc-slice", "6"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical: True" in out
        assert "speedup" in out
        assert "L1:" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--stop", "768", "--step", "512"]) == 0
        out = capsys.readouterr().out
        assert "OpenBLAS-8x6" in out
        assert "256" in out

    def test_pool(self, capsys):
        assert main(["pool", "--threads", "2", "--size", "48",
                     "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "persistent pool" in out
        assert "per-thread counters" in out
        assert "speedup" in out

    def test_pool_bad_thread_count_is_clean_error(self, capsys):
        assert main(["pool", "--threads", "99", "--size", "32",
                     "--reps", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_thread_count_is_clean_error(self, capsys):
        assert main(["simulate", "--threads", "99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_variant_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernel", "--variant", "bogus"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestTuneCommand:
    def test_smoke_rediscovers_8x6_and_warm_run_hits(
        self, tmp_path, capsys
    ):
        import json

        cache = str(tmp_path / "cache")
        report = tmp_path / "tune.json"
        assert main([
            "tune", "--smoke", "--cache-dir", cache,
            "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "winner 8x6" in out
        assert "512x56x1920" in out
        doc = json.loads(report.read_text())
        winner = doc["stats"]["winner"]["candidate"]
        assert (winner["mr"], winner["nr"], winner["kc"]) == (8, 6, 512)
        assert doc["stats"]["prune_ratio"] >= 5.0
        # Second run over the same cache computes nothing.
        assert main(["tune", "--smoke", "--cache-dir", cache]) == 0
        assert ", 0 computed" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_writes_all_exhibits(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main([
            "experiments", "--out", str(out), "--step", "3072",
        ]) == 0
        names = {p.name for p in out.iterdir()}
        expected = {
            "table1_rotation.txt", "fig7_schedule.txt", "fig8_codegen.txt",
            "table3_blocksizes.txt", "table4_microbench.txt",
            "table5_efficiency.txt", "fig11_serial_sweep.txt",
            "fig12_parallel_sweep.txt", "fig13_rotation_ablation.txt",
            "fig14_scaling.txt", "table6_blocksize_sensitivity.txt",
            "fig15_l1_loads.txt", "table7_miss_rates.txt",
        }
        assert expected <= names
        # The Table III exhibit carries the exact paper values.
        assert "512x56x1920" in (out / "table3_blocksizes.txt").read_text()
