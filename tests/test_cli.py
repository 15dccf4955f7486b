"""CLI surface: commands, flags, config merging, exit codes."""

import subprocess
import sys

import pytest

from multitude_sim.cli import main


def test_generate_writes_edge_list(tmp_path):
    out = tmp_path / "topo.txt"
    rc = main(["generate", "--family", "2DCA", "--n", "9", "--s", "9", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# multitude-topology v1 family=2DCA seed=4\n")
    assert text.count("\nL ") == 21


def test_generate_to_stdout(capsys):
    rc = main(["generate", "--family", "2DCA", "--n", "4", "--s", "4"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("# multitude-topology v1")


def test_metrics_from_topology_file(tmp_path):
    topo = tmp_path / "topo.txt"
    out = tmp_path / "metrics.csv"
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--out", str(topo)]) == 0
    assert main(["metrics", "--topology", str(topo), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("family,seed,N,S,alpha,ks,avg_hops")
    assert lines[1].split(",")[6] == "3.0"


def test_simulate_reports_stats(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--family", "3DRMStandard", "--seed", "2",
               "--steps", "50", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["routing"] == "ShortestPath"
    assert int(fields["delivered"]) > 0


def test_sync_forces_random_wandering(tmp_path):
    out = tmp_path / "sync.csv"
    rc = main(["sync", "--family", "3DRMGlobal", "--seed", "2", "--steps", "40",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,seed,N,S,alpha,step,stddev"
    assert len(lines) == 1 + 41 + 1


def test_experiment_subcommand(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = main(["experiment", "scaling", "--family", "3DCA", "--seeds-per-point", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,size,seed,avg_hops,unreachable"
    assert len(lines) > 4


def test_experiment_gnuplot_companion(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = main(["experiment", "scaling", "--family", "3DCA", "--seeds-per-point", "1",
               "--out", str(out), "--gnuplot"])
    assert rc == 0
    script = (tmp_path / "scaling.gp").read_text(encoding="utf-8")
    assert "set datafile separator ','" in script
    assert "3DCA" in script
    # gnuplot without a CSV on disk has nothing to plot
    assert main(["experiment", "scaling", "--family", "3DCA",
                 "--seeds-per-point", "1", "--gnuplot"]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family = 2DCA\nn = 9\ns = 9\nseed = 1\n", encoding="utf-8")
    out = tmp_path / "topo.txt"
    rc = main(["generate", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    assert rc == 0
    # the flag wins over the file value
    assert "seed=9" in out.read_text(encoding="utf-8").splitlines()[0]


def test_config_error_exit_code():
    assert main(["generate", "--family", "2DCA", "--n", "10", "--s", "10"]) == 1
    assert main(["generate"]) == 1  # family missing
    assert main(["simulate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--routing", "teleport"]) == 1
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--topology", "nope"]) == 1  # unknown flag for this command


def test_non_leaf_processing_node_exit_code(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "# multitude-topology v1 family=2DCA seed=0\n"
        "N 0 S 0.0 0.0 0.0\nN 1 S 1.0 0.0 0.0\nN 2 P 0.0 0.0 0.0\nN 3 P 1.0 0.0 0.0\n"
        "L 0 1 1.0\nL 0 2 0.01\nL 1 2 0.01\nL 1 3 0.01\n",
        encoding="utf-8",
    )
    for command in ("metrics", "simulate", "sync"):
        assert main([command, "--topology", str(topo)]) == 1
        assert "processing node 2 " in capsys.readouterr().err


def test_non_numeric_topology_field_exit_code(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "# multitude-topology v1 family=2DCA seed=0\n"
        "N 0 S 0.0 0.0 0.0\nN 1 P x 0.0 0.0\nL 0 1 0.01\n",
        encoding="utf-8",
    )
    assert main(["metrics", "--topology", str(topo)]) == 1
    assert "non-numeric" in capsys.readouterr().err


def test_non_numeric_option_values_exit_code(tmp_path, capsys):
    assert main(["experiment", "robustness", "--deletions", "a,b"]) == 1
    assert "--deletions" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = 2DCA\nn = abc\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "n = 'abc'" in capsys.readouterr().err


def test_infeasible_generation_exit_code():
    rc = main(["generate", "--family", "3DRMRealistic", "--kmax", "1", "--ks", "6"])
    assert rc == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["metrics", "--topology", str(tmp_path / "absent.txt")]) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multitude_sim.cli", "generate", "--family", "2DCA",
         "--n", "4", "--s", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# multitude-topology v1")
